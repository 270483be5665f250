//go:build !linux

package main

// pinToOneCPU is a no-op off Linux: the benchmark's numbers are recorded on
// Linux, and elsewhere it runs where the scheduler puts it.
func pinToOneCPU() (restore func(), err error) { return func() {}, nil }
