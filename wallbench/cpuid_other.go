//go:build !amd64

package main

// cpuModel is only read through CPUID on amd64.
func cpuModel() string { return "unknown" }
