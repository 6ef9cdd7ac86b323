package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"net"
	"sort"
	"testing"
	"time"

	"mce/internal/cluster/faultconn"
	"mce/internal/gen"
	"mce/internal/telemetry"
)

// sortedDigest hashes the sorted clique-membership keys of a batch result —
// the canonical "sorted output digest" two runs are compared by. Block
// order, worker assignment and hedging races must never change it.
func sortedDigest(t *testing.T, out [][][]int32) string {
	t.Helper()
	set := cliqueSet(t, out)
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// startSlowWorker launches one worker whose every post-handshake read and
// write stalls for delay — a deterministic straggler, not a dead peer: it
// answers correctly, just far too late.
func startSlowWorker(t *testing.T, delay time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{DrainTimeout: 100 * time.Millisecond}
	go func() {
		_ = w.Serve(faultconn.Listener(ln, faultconn.Options{
			ReadDelay:  delay,
			WriteDelay: delay,
			SkipOps:    6, // let the handshake through
		}))
	}()
	t.Cleanup(func() { _ = w.Close() })
	return ln.Addr().String()
}

// TestChaosStragglerHedging is the acceptance test for hedged dispatch: a
// cluster with one worker delayed ~100× the healthy round trip must finish
// close to healthy wall time — the straggler's blocks are speculatively
// re-dispatched and the first result wins — with the output digest equal to
// the uninterrupted run's.
func TestChaosStragglerHedging(t *testing.T) {
	// Client-side link simulation makes the healthy round trip a known
	// ~2×baseLatency, so "100× slower" is meaningful on a loopback where
	// real transport time is microseconds.
	const baseLatency = 10 * time.Millisecond
	const stragglerDelay = time.Second // ≥100× the healthy round trip, per op

	g := gen.HolmeKim(300, 5, 0.7, 11)
	blocks, combos := makeBlocks(g, g.MaxDegree()+1)
	opts := func(met *telemetry.Engine) ClientOptions {
		return ClientOptions{
			DialTimeout: 2 * time.Second,
			Latency:     baseLatency,
			Hedge:       true,
			Metrics:     met,
		}
	}

	// Uninterrupted baseline: three healthy workers.
	healthyAddrs, stop, err := StartLocal(3)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	baseline, err := Dial(healthyAddrs, opts(telemetry.NewEngine()))
	if err != nil {
		t.Fatal(err)
	}
	defer baseline.Close()
	t0 := time.Now()
	wantOut, err := baseline.AnalyzeBlocks(blocks, combos)
	if err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}
	healthyWall := time.Since(t0)

	// Straggler run: two healthy workers plus one delayed 100×.
	okAddrs, stop2, err := StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()
	slowAddr := startSlowWorker(t, stragglerDelay)
	met := telemetry.NewEngine()
	hedged, err := Dial(append(okAddrs, slowAddr), opts(met))
	if err != nil {
		t.Fatal(err)
	}
	defer hedged.Close()
	t0 = time.Now()
	gotOut, err := hedged.AnalyzeBlocks(blocks, combos)
	if err != nil {
		t.Fatalf("hedged straggler run failed: %v", err)
	}
	hedgedWall := time.Since(t0)

	if got, want := sortedDigest(t, gotOut), sortedDigest(t, wantOut); got != want {
		t.Fatalf("hedged run digest %s differs from uninterrupted digest %s", got, want)
	}

	// The wall-time bound from the acceptance criteria: within 3× healthy.
	// The floor absorbs scheduler noise on very fast baselines without
	// weakening the check — an unhedged run cannot finish before the
	// straggler's multi-second round trip returns.
	bound := 3 * healthyWall
	if floor := 2 * time.Second; bound < floor {
		bound = floor
	}
	if hedgedWall > bound {
		t.Fatalf("straggler run took %v, want ≤ %v (healthy %v): hedging did not mask the slow worker",
			hedgedWall, bound, healthyWall)
	}

	if met.Snapshot().HedgedDispatches == 0 {
		t.Fatal("no hedged dispatches issued against a 100× straggler")
	}
	if met.Snapshot().HedgeWins == 0 {
		t.Fatal("no hedge wins recorded: the straggler's blocks were not rescued")
	}
}

// TestChaosStragglerHedgeDedup pins first-wins dedup under hedging: even
// when the straggler's late duplicate eventually lands, every clique is
// reported exactly once (cliqueSet fails on duplicates) and the losing copy
// is counted as wasted rather than merged.
func TestChaosStragglerHedgeDedup(t *testing.T) {
	okAddrs, stop, err := StartLocal(1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	// A mild straggler: slow enough to lose every race once hedging kicks
	// in, fast enough that its duplicate results land before the test ends.
	slowAddr := startSlowWorker(t, 60*time.Millisecond)

	met := telemetry.NewEngine()
	client, err := Dial(append(okAddrs, slowAddr), ClientOptions{
		DialTimeout:   2 * time.Second,
		Hedge:         true,
		HedgeMinDelay: 10 * time.Millisecond,
		Metrics:       met,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	g := gen.HolmeKim(200, 4, 0.6, 31)
	blocks, combos := makeBlocks(g, g.MaxDegree()+1)
	out, err := client.AnalyzeBlocks(blocks, combos)
	if err != nil {
		t.Fatalf("hedged run failed: %v", err)
	}
	// cliqueSet fails the test on any duplicated clique across blocks.
	set := cliqueSet(t, out)
	if len(set) == 0 {
		t.Fatal("empty result")
	}
	if met.Snapshot().HedgedDispatches == 0 {
		t.Fatal("hedging never fired against the slow worker")
	}
	// Give the straggler's in-flight duplicates a moment to land, then
	// confirm they were discarded, not merged: wasted + wins ≤ dispatches.
	time.Sleep(150 * time.Millisecond)
	snap := met.Snapshot()
	wins, wasted, issued := snap.HedgeWins, snap.HedgeWasted, snap.HedgedDispatches
	if wins+wasted > issued+int64(len(blocks)) {
		t.Fatalf("dedup accounting off: wins=%d wasted=%d issued=%d", wins, wasted, issued)
	}
}
