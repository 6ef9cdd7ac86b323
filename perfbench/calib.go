package main

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// calibrate times a fixed CPU-and-memory kernel that imports no repository
// package: a dependent random walk over a 32 MiB table (memory latency)
// followed by sorting 1M pseudo-random keys (branchy CPU work). No change to
// the repository can move it, so it tells a slower host from a slower
// commit. It is reported beside the other metrics and never divides them.
func calibrate() time.Duration {
	const words = 4 << 20 // 32 MiB of uint64
	table := make([]uint64, words)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range table {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[i] = x
	}
	t0 := time.Now()
	idx := uint64(0)
	for i := 0; i < 1_000_000; i++ {
		idx = table[idx%words] ^ uint64(i)
	}
	keys := slices.Clone(table[:1<<20])
	slices.Sort(keys)
	d := time.Since(t0)
	calibSink = idx + keys[0]
	return d
}

// calibSink keeps the calibration's results live, so the compiler cannot
// drop the work.
var calibSink uint64

// hostRecord describes the machine a run measured, so raw times are only
// compared like for like.
func hostRecord() map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
