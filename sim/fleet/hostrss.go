package fleet

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostPeakRSS reports the calling process's peak resident set in bytes
// — the memory half of the host-scale story (a 100k-machine fleet must
// stream, pool, and stay under a real bound, not just finish). Read
// from /proc/self/status (VmHWM) where available; elsewhere it falls
// back to the Go runtime's reserved-from-OS figure, which bounds RSS
// from above. Host-side and monotone within a process: never part of
// the byte-stable report.
func hostPeakRSS() uint64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseUint(fields[1], 10, 64); err == nil {
					return kb << 10
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Sys
}
