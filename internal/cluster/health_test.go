package cluster

import (
	"strings"
	"testing"
	"time"

	"mce/internal/telemetry"
)

// failUntilQuarantined drives consecutive failures into addr until the
// registry benches it, bounded so a broken state machine fails the test
// instead of hanging it.
func failUntilQuarantined(t *testing.T, r *healthRegistry, addr string) {
	t.Helper()
	for i := 0; i < quarantineConsecFails+1; i++ {
		r.failure(addr, false)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byAddr[addr].state != stateQuarantined {
		t.Fatalf("%s not quarantined after %d consecutive failures", addr, quarantineConsecFails+1)
	}
}

func TestHealthLastWorkerNeverQuarantined(t *testing.T) {
	r := newHealthRegistry(nil)
	r.touch("a:1")
	for i := 0; i < 20; i++ {
		r.failure("a:1", false)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if got := r.byAddr["a:1"].state; got != stateHealthy {
		t.Fatalf("sole worker benched: state=%v; quarantine must preserve liveness", got)
	}
}

func TestHealthQuarantineAndProbeReadmission(t *testing.T) {
	met := telemetry.NewEngine()
	r := newHealthRegistry(met)
	r.touch("a:1")
	r.touch("b:2")
	failUntilQuarantined(t, r, "a:1")
	if met.Snapshot().WorkersQuarantined == 0 {
		t.Fatal("WorkersQuarantined not counted")
	}

	// Inside the cooldown the gate holds the dispatch back.
	now := time.Now()
	if wait, probe, recheck := r.gate("a:1", now); wait <= 0 || probe || !recheck {
		t.Fatalf("gate during cooldown = (%v, %v, %v), want positive rechecked wait, no probe", wait, probe, recheck)
	}
	// Past the cooldown the next dispatch is the re-admission probe, and
	// sibling dispatches stand back while it flies.
	after := now.Add(quarantineMaxCooldown + time.Second)
	if wait, probe, _ := r.gate("a:1", after); wait != 0 || !probe {
		t.Fatalf("gate after cooldown = (%v, %v), want (0, probe)", wait, probe)
	}
	if met.Snapshot().WorkerProbes != 1 {
		t.Fatal("WorkerProbes not counted")
	}
	if wait, probe, recheck := r.gate("a:1", after); wait != probeHold || probe || !recheck {
		t.Fatalf("sibling gate during probe = (%v, %v, %v), want (%v, false, true)", wait, probe, recheck, probeHold)
	}

	// A successful probe re-admits the worker and forgives the cooldown.
	r.success("a:1", 5*time.Millisecond)
	r.mu.Lock()
	h := r.byAddr["a:1"]
	if h.state != stateHealthy || h.cooldown != 0 {
		r.mu.Unlock()
		t.Fatalf("after probe success: state=%v cooldown=%v, want healthy, 0", h.state, h.cooldown)
	}
	r.mu.Unlock()
}

func TestHealthFailedProbeDoublesCooldown(t *testing.T) {
	r := newHealthRegistry(nil)
	r.touch("a:1")
	r.touch("b:2")
	failUntilQuarantined(t, r, "a:1")
	r.mu.Lock()
	first := r.byAddr["a:1"].cooldown
	r.mu.Unlock()
	if first != quarantineBaseCooldown {
		t.Fatalf("first cooldown = %v, want %v", first, quarantineBaseCooldown)
	}
	// Release, probe, fail the probe: back to quarantine, cooldown doubled.
	if _, probe, _ := r.gate("a:1", time.Now().Add(quarantineMaxCooldown+time.Second)); !probe {
		t.Fatal("expected a probe after the cooldown")
	}
	r.failure("a:1", false)
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.byAddr["a:1"]
	if h.state != stateQuarantined {
		t.Fatalf("failed probe left state=%v, want quarantined", h.state)
	}
	if h.cooldown != 2*first {
		t.Fatalf("cooldown after failed probe = %v, want %v", h.cooldown, 2*first)
	}
	if h.quarantines != 2 {
		t.Fatalf("quarantines = %d, want 2", h.quarantines)
	}
}

func TestHealthSuccessDecaysErrorScore(t *testing.T) {
	r := newHealthRegistry(nil)
	r.failure("a:1", false)
	r.mu.Lock()
	bad := r.byAddr["a:1"].errEWMA
	r.mu.Unlock()
	for i := 0; i < 20; i++ {
		r.success("a:1", time.Millisecond)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	got := r.byAddr["a:1"].errEWMA
	if got >= bad || got > 0.01 {
		t.Fatalf("errEWMA after recovery = %v (was %v), want near zero", got, bad)
	}
}

func TestHealthReportOrderingAndDegraded(t *testing.T) {
	r := newHealthRegistry(nil)
	r.touch("b:2")
	r.touch("a:1")
	r.success("b:2", 2*time.Millisecond)
	rep := r.report()
	if len(rep.Workers) != 2 || rep.Workers[0].Addr != "a:1" || rep.Workers[1].Addr != "b:2" {
		t.Fatalf("report not ordered by address: %+v", rep.Workers)
	}
	if rep.Degraded() {
		t.Fatal("healthy registry reported degraded")
	}
	failUntilQuarantined(t, r, "a:1")
	rep = r.report()
	if !rep.Degraded() {
		t.Fatal("quarantine not reflected in Degraded()")
	}
	s := rep.String()
	if !strings.Contains(s, "a:1: quarantined") || !strings.Contains(s, "b:2: healthy") {
		t.Fatalf("summary missing states:\n%s", s)
	}
	if rep.Workers[0].CorruptResults != 0 {
		t.Fatalf("phantom corrupt verdicts: %+v", rep.Workers[0])
	}
}

func TestHealthCorruptVerdictsCounted(t *testing.T) {
	r := newHealthRegistry(nil)
	r.failure("a:1", true)
	r.failure("a:1", false)
	rep := r.report()
	if rep.Workers[0].CorruptResults != 1 {
		t.Fatalf("CorruptResults = %d, want 1", rep.Workers[0].CorruptResults)
	}
	if rep.Workers[0].ConsecutiveFailures != 2 {
		t.Fatalf("ConsecutiveFailures = %d, want 2", rep.Workers[0].ConsecutiveFailures)
	}
}

func TestHealthGatePenalisesFlakyWorker(t *testing.T) {
	r := newHealthRegistry(nil)
	r.touch("a:1")
	r.touch("b:2")
	// One failure then one success: still serving, but errEWMA is above the
	// penalty threshold, so the gate delays the next dispatch.
	r.failure("a:1", false)
	r.success("a:1", time.Millisecond)
	wait, probe, recheck := r.gate("a:1", time.Now())
	if probe {
		t.Fatal("penalty gate must not be a probe")
	}
	if wait <= 0 || wait > penaltyMax {
		t.Fatalf("penalty wait = %v, want in (0, %v]", wait, penaltyMax)
	}
	// The penalty is a one-shot delay: dispatch follows the wait without
	// consulting the gate again, otherwise a worker whose score can only
	// decay by serving would never serve.
	if recheck {
		t.Fatal("penalty wait must not recheck the gate")
	}
	// A clean worker pays nothing.
	if w, _, _ := r.gate("b:2", time.Now()); w != 0 {
		t.Fatalf("clean worker penalised: %v", w)
	}
}
