// Command perfbench is the repository benchmark. It runs one workload —
// hubs or dense, see BENCHMARK.json — through the whole user path:
// an edge-list file is loaded, enumerated, compiled into a cliqdb index and
// served by an mced process under an open-loop query load. It prints its
// metrics as the last line of standard output, as one JSON object.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload hubs --seed 1 --seconds 40 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured untraced; --trace 1
// runs the per-layer measurements instead, with spans around each layer's
// public functions, and writes the spans to .bench_build/traces/. Every
// input derives from --seed alone. The run exits non-zero when an output
// check fails: a clique count or digest differs from the recorded one or
// between enumeration paths, a clique is not maximal, or a spot-checked
// mced response differs from the index.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

//go:embed expected.json
var expectedJSON []byte

// expectation is the recorded output of one workload and seed.
type expectation struct {
	Cliques int    `json:"cliques"`
	Digest  string `json:"digest"`           // setDigest over generated IDs
	Stream  string `json:"stream,omitempty"` // streamDigest of the width-1 engine
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run's state.
type bench struct {
	w       workload
	seed    int64
	seconds float64
	work    string // scratch directory inside the checkout
	mcedBin string

	attempted, failed atomic.Int64

	mu       sync.Mutex
	problems []string
	metrics  map[string]metric
}

// op counts one operation and whether it failed; it reports success.
func (b *bench) op(err error) bool {
	b.attempted.Add(1)
	if err != nil {
		if b.failed.Add(1) <= 5 {
			fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
		}
		return false
	}
	return true
}

// wrong records an output check that failed; the run then exits non-zero.
func (b *bench) wrong(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.mu.Lock()
	b.problems = append(b.problems, msg)
	b.mu.Unlock()
	fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", msg)
}

func (b *bench) set(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: hubs or dense")
	seed := fs.Int64("seed", 1, "seed every input derives from")
	secs := fs.Float64("seconds", 40, "measurement time of one run")
	trace := fs.Int("trace", 0, "1 = per-layer traced run instead of the end-to-end one")
	record := fs.String("record", "", "print the expected count and digests for these comma-separated seeds and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (hubs, dense)\n", *name)
		return 2
	}
	if *record != "" {
		return recordSeeds(w, *record)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{
		w: w, seed: *seed, seconds: *secs, metrics: map[string]metric{},
		mcedBin: filepath.Join(filepath.Dir(exe), "mced"),
		work:    filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid())),
	}
	defer os.RemoveAll(b.work)
	fmt.Fprintf(os.Stderr, "perfbench: host %v\n", hostRecord())
	if *trace == 1 {
		err = b.perLayer()
	} else {
		err = b.endToEnd()
	}
	if err != nil {
		b.wrong("%v", err)
	}
	correct := len(b.problems) == 0
	out, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(1, b.attempted.Load()),
		"failed":    b.failed.Load(),
		"metrics":   b.metrics,
	})
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

// expected returns the recorded output for this workload and seed, if any.
func (b *bench) expected() (expectation, bool) {
	var all map[string]map[string]expectation
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		panic(err) // embedded at build time
	}
	e, ok := all[b.w.name][strconv.FormatInt(b.seed, 10)]
	return e, ok
}

// checkFamily holds an enumeration's clique family to the recorded answer,
// or, on a seed nobody recorded, to the run's reference family.
func (b *bench) checkFamily(what string, cliques [][]int32, ref expectation) {
	if d := setDigest(cliques); len(cliques) != ref.Cliques || d != ref.Digest {
		b.wrong("%s: %d cliques with digest %s, want %d with %s", what, len(cliques), d, ref.Cliques, ref.Digest)
	}
}

func recordSeeds(w workload, list string) int {
	out := map[string]expectation{}
	for _, s := range strings.Split(list, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: bad seed", s)
			return 2
		}
		b := &bench{w: w, seed: seed}
		g := w.graph(seed)
		res, err := b.coreNarrow(g)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		e := expectation{Cliques: len(res), Digest: setDigest(res)}
		if w.name == "dense" {
			e.Stream = streamDigest(res)
		}
		out[strconv.FormatInt(seed, 10)] = e
	}
	enc, _ := json.MarshalIndent(out, "", "  ")
	fmt.Println(string(enc))
	return 0
}
