//go:build unix

package experiments

import (
	"syscall"
	"time"
)

// processCPU returns the CPU time this process has used so far, user plus
// system, across all its threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
