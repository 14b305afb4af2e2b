package main

import (
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
)

// usage is a snapshot of what the process has consumed so far: CPU
// time from getrusage, and the Go runtime's cumulative allocation and
// collection counters. Differences between two snapshots attribute a
// phase's cost; neither read stops the world.
type usage struct {
	cpu        time.Duration // user + system
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	gcPause    time.Duration
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// readUsage must not be called concurrently: it reuses one sample
// buffer. Every caller is the single goroutine driving a phase or the
// single client of a compile workload.
func readUsage() usage {
	var u usage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	metrics.Read(usageSamples)
	u.allocBytes = usageSamples[0].Value.Uint64()
	u.allocObjs = usageSamples[1].Value.Uint64()
	u.gcCycles = usageSamples[2].Value.Uint64()
	var gs debug.GCStats
	debug.ReadGCStats(&gs)
	u.gcPause = gs.PauseTotal
	return u
}

func (u usage) sub(v usage) usage {
	return usage{
		cpu:        u.cpu - v.cpu,
		allocBytes: u.allocBytes - v.allocBytes,
		allocObjs:  u.allocObjs - v.allocObjs,
		gcCycles:   u.gcCycles - v.gcCycles,
		gcPause:    u.gcPause - v.gcPause,
	}
}

func (u usage) add(v usage) usage {
	return usage{
		cpu:        u.cpu + v.cpu,
		allocBytes: u.allocBytes + v.allocBytes,
		allocObjs:  u.allocObjs + v.allocObjs,
		gcCycles:   u.gcCycles + v.gcCycles,
		gcPause:    u.gcPause + v.gcPause,
	}
}

// peakRSSMB is the process's high-water resident set in MB (Linux
// reports ru_maxrss in KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
