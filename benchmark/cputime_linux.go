package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is CLOCK_THREAD_CPUTIME_ID from <time.h>.
const clockThreadCPUTimeID = 3

// threadCPU returns the calling thread's CPU time. run locks its goroutine
// to one thread, so the difference of two readings is the CPU the measured
// calls used: time the machine gave to other tenants (steal) or spent in
// pauses is not counted.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
