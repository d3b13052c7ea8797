package main

import (
	"bufio"
	"os"
	goruntime "runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB, or the
// Go runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// memMark is a snapshot of the Go runtime's allocation and GC counters
// and of the process's CPU time.
type memMark struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
	cpuNs      int64
}

func markMem() memMark {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return memMark{ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs, cpuTimeNs()}
}

// since returns the bytes allocated, GC cycles and CPU ns since m.
func (m memMark) since() (allocB uint64, gcs uint32, cpuNs int64) {
	n := markMem()
	return n.totalAlloc - m.totalAlloc, n.numGC - m.numGC, n.cpuNs - m.cpuNs
}

// cpuTimeNs returns the process's user plus system CPU time. Unlike wall
// time it barely moves when other tenants of the machine take the cores.
func cpuTimeNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes returns the bytes allocated on the heap so far. Unlike
// runtime.ReadMemStats it does not stop the world.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}
