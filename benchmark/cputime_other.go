//go:build !linux

package main

import "time"

var epoch = time.Now()

// threadCPU falls back to wall time where the thread CPU clock is not wired
// up.
func threadCPU() time.Duration { return time.Since(epoch) }
