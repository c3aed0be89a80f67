//go:build !unix

package experiments

import "time"

var processStart = time.Now()

// processCPU falls back to wall-clock time where getrusage is unavailable.
func processCPU() time.Duration {
	return time.Since(processStart)
}
