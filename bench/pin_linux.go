package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a kernel CPU set covering 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU restricts every thread of the process to the first CPU it may
// run on and returns the function that lifts the restriction again.
//
// The benchmark measures under it because the recording host is a 2-vCPU VM
// on which a wake-up or migration across vCPUs goes through the hypervisor,
// and how often the kernel does that changes from minute to minute. Left
// alone, ten runs of one workload spread 13-31 % (dist-closed landed in a
// 6 k or a 9 k queries/s regime for a whole run); the same runs on one CPU,
// interleaved with them, spread 1-14 %, and fleet-1k and live-closed also ran
// a third faster (README, "One CPU"). What this gives up is stated there too:
// nothing is measured about scaling across cores. main sets GOMAXPROCS to 1
// with it, so that the kernel has no second runtime thread to time-slice.
func pinToOneCPU() (restore func(), err error) {
	var old, one cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(old), uintptr(unsafe.Pointer(&old))); e != 0 {
		return nil, fmt.Errorf("bench: sched_getaffinity: %w", e)
	}
	for i, w := range old {
		if w != 0 {
			one[i] = w & -w
			break
		}
	}
	if err := setAffinity(&one); err != nil {
		return nil, err
	}
	return func() { _ = setAffinity(&old) }, nil // best effort: the run is over
}

// setAffinity applies mask to every thread of the process. A thread started
// later inherits the mask of the thread that clones it; the second pass
// catches one cloned, during the first, by a thread not yet reached.
func setAffinity(mask *cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return fmt.Errorf("bench: listing threads: %w", err)
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*mask), uintptr(unsafe.Pointer(mask)))
			if e != 0 && e != syscall.ESRCH { // ESRCH: the thread has exited
				return fmt.Errorf("bench: sched_setaffinity(%d): %w", tid, e)
			}
		}
	}
	return nil
}
