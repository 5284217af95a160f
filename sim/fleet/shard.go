package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"
)

// shardEnv carries a shard worker's job (JSON shardJob) into the
// re-invoked binary. Its presence is what MaybeShardWorker keys on.
const shardEnv = "FORKBENCH_FLEET_SHARD"

// shardJob is the work order the parent hands each worker process:
// the (already defaulted) fleet spec plus the worker's contiguous
// machine-id range [Lo, Hi).
type shardJob struct {
	Spec Spec `json:"spec"`
	Lo   int  `json:"lo"`
	Hi   int  `json:"hi"`
}

// shardPartial is one worker's stdout: its id range's partial
// aggregate, the exact rate accumulator (hex big.Int — floats must not
// round-trip through a lossy sum), the kept per-machine metrics when
// requested, and the worker's own peak RSS (host-side, informational).
type shardPartial struct {
	Machines     []MachineMetrics `json:"machines,omitempty"`
	Aggregate    Aggregate        `json:"aggregate"`
	RateSum      string           `json:"rate_sum"`
	PeakRSSBytes uint64           `json:"peak_rss_bytes"`
}

// MaybeShardWorker turns the current process into a fleet shard worker
// when it was launched as one (the shard job environment variable is
// set): it runs its machine-id range, writes the partial aggregate to
// stdout, and exits. Host programs that expose Spec.Shards must call
// it at the top of main (and test binaries in TestMain), before flag
// parsing — a worker invocation carries the parent's command line,
// which is not meant to be re-parsed. Returns immediately in a normal
// process.
func MaybeShardWorker() {
	payload := os.Getenv(shardEnv)
	if payload == "" {
		return
	}
	os.Unsetenv(shardEnv)
	if err := runShardWorker(payload, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "fleet shard worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// runShardWorker executes one shard job and emits its shardPartial.
func runShardWorker(payload string, w io.Writer) error {
	var job shardJob
	if err := json.Unmarshal([]byte(payload), &job); err != nil {
		return fmt.Errorf("bad job: %w", err)
	}
	spec := job.Spec
	spec.Shards = 0 // a worker never re-shards
	if err := spec.validate(); err != nil {
		return err
	}
	if job.Lo < 0 || job.Hi <= job.Lo || job.Hi > spec.Machines {
		return fmt.Errorf("bad machine range [%d, %d) of %d", job.Lo, job.Hi, spec.Machines)
	}
	m, err := runRange(spec, job.Lo, job.Hi, PoolSize(job.Hi-job.Lo))
	if err != nil {
		return err
	}
	part := shardPartial{
		Machines:     m.keep,
		Aggregate:    m.agg.agg, // integer part only; the rate travels exactly
		RateSum:      m.agg.rate.Text(),
		PeakRSSBytes: HostPeakRSS(),
	}
	return json.NewEncoder(w).Encode(&part)
}

// runSharded fans the fleet's machine ids across Spec.Shards worker
// processes and merges their partials in shard order — which is
// machine-id order, since ranges are contiguous and ascending — so
// the Result is byte-identical to the in-process run. Worker stderr
// passes through; a failing shard fails the run (lowest shard wins,
// deterministically).
func runSharded(spec Spec) (*Result, error) {
	start := time.Now()
	shards := spec.Shards
	if shards > spec.Machines {
		shards = spec.Machines
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("fleet: shard re-exec: %w", err)
	}
	type shardOut struct {
		part shardPartial
		rss  uint64
		err  error
	}
	outs := make([]shardOut, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		lo, hi := i*spec.Machines/shards, (i+1)*spec.Machines/shards
		job := shardJob{Spec: spec, Lo: lo, Hi: hi}
		job.Spec.Shards = 0
		payload, err := json.Marshal(job)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var stdout bytes.Buffer
			cmd := exec.Command(exe)
			cmd.Env = append(os.Environ(), shardEnv+"="+string(payload))
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				outs[i].err = fmt.Errorf("fleet: shard %d (machines %d..%d): %w", i, lo, hi-1, err)
				return
			}
			outs[i].rss = childPeakRSS(cmd)
			if err := json.Unmarshal(stdout.Bytes(), &outs[i].part); err != nil {
				outs[i].err = fmt.Errorf("fleet: shard %d partial: %w", i, err)
			}
		}()
	}
	wg.Wait()

	var agg aggregator
	var keep []MachineMetrics
	peak := HostPeakRSS() // the parent's own footprint
	for i := range outs {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
		if err := agg.merge(&outs[i].part); err != nil {
			return nil, fmt.Errorf("fleet: shard %d partial: %w", i, err)
		}
		keep = append(keep, outs[i].part.Machines...)
		if r := outs[i].rss; r > peak {
			peak = r
		}
		if r := outs[i].part.PeakRSSBytes; r > peak {
			peak = r
		}
	}
	res := spec.result()
	res.Machines = keep
	res.Aggregate = agg.aggregate()
	res.HostElapsed = time.Since(start)
	res.HostWorkers = PoolSize((spec.Machines + shards - 1) / shards)
	res.HostShards = shards
	res.HostPeakRSSBytes = peak
	return res, nil
}
