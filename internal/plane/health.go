package plane

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/neterr"
	"repro/internal/trace"
)

// drainWait bounds how long the health checker waits for a suspect plane's
// in-flight requests to land before diagnosing anyway; routing is
// thread-safe, so proceeding under a straggler is correct, just noisier.
const drainWait = 100 * time.Millisecond

// healthLoop is the supervisor's background control plane: a periodic sweep
// over every plane, kicked immediately when the hot path detects a failure.
func (s *Supervisor) healthLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.interval)
	defer ticker.Stop()
	// Scratch buffers reused across every probe the checker routes.
	src := make([]core.Word, s.n)
	dst := make([]core.Word, s.n)
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		case <-s.kick:
		}
		s.sweep(dst, src)
	}
}

// sweep advances every plane's state machine one step: suspect planes are
// drained, diagnosed, and quarantined; quarantined planes are probed for
// readmission (rebuilt after rebuildAfter consecutive failed passes);
// admitting planes are probed for first admission; healthy idle planes are
// probed so a fault on a cold plane is found before live traffic hits it.
// Every repair-side transition is a CompareAndSwap from the state the
// checker observed: a membership operation that concurrently marks the
// plane Draining wins, and the checker backs off — a plane on its way out
// can never be resurrected by a stale probe result.
func (s *Supervisor) sweep(dst, src []core.Word) {
	for _, p := range s.snapshot() {
		switch State(p.state.Load()) {
		case Suspect:
			s.drain(p)
			s.diagnose(p)
			if !p.state.CompareAndSwap(int32(Suspect), int32(Quarantined)) {
				continue // now Draining: membership owns this plane
			}
			s.publishGauges()
			s.tryReadmit(p, dst, src, Quarantined)
		case Quarantined:
			s.tryReadmit(p, dst, src, Quarantined)
		case Admitting:
			s.tryReadmit(p, dst, src, Admitting)
		case Healthy:
			// Opportunistic idle probe: skip planes carrying live traffic —
			// their routes are verified inline anyway.
			if p.inflight.Load() == 0 {
				if err := s.tracedProbePass(p, dst, src); err != nil {
					s.fail(p, err)
				}
			}
		}
	}
}

// drain waits (bounded) for the plane's in-flight requests to land.
func (s *Supervisor) drain(p *planeState) {
	deadline := time.Now().Add(drainWait)
	for p.inflight.Load() > 0 && time.Now().Before(deadline) {
		select {
		case <-s.stop:
			return
		case <-time.After(50 * time.Microsecond):
		}
	}
}

// diagnose localizes the drained plane's fault when a diagnoser is
// configured. The outcome is advisory — repair policy keys on probe passes,
// not on the dictionary — but it is recorded for operators and tests.
func (s *Supervisor) diagnose(p *planeState) {
	if s.diag == nil {
		return
	}
	d, err := s.diag.Diagnose(p.get())
	if err != nil {
		return
	}
	p.lastDiag.Store(&d)
}

// tryReadmit runs a full probe pass over the quarantined (or admitting)
// plane and promotes it to Healthy on a clean pass — by CompareAndSwap
// from the state the caller observed, so a concurrent Draining mark wins.
// After rebuildAfter consecutive failed passes the plane is rebuilt from
// its constructor — the repair for faults that do not heal on their own —
// and probed again on the next sweep. First admissions (from Admitting)
// do not count as readmits: the plane was never in service.
func (s *Supervisor) tryReadmit(p *planeState, dst, src []core.Word, from State) {
	begin := time.Now()
	if err := s.tracedProbePass(p, dst, src); err != nil {
		e := err
		p.lastErr.Store(&e)
		if failed := p.failedProbes.Add(1); s.rebuild != nil && int(failed) >= s.rebuildAfter {
			if r, rerr := s.rebuild(p.id); rerr == nil && r != nil && r.Inputs() == s.n {
				p.router.Store(&routerBox{r: r})
				p.repairs.Add(1)
				s.repairs.Add(1)
				s.m.AddRepair()
				p.failedProbes.Store(0)
			}
		}
		return
	}
	// A slow-quarantined plane must additionally prove speed: the probe
	// pass above is timed, and while its per-probe latency still exceeds
	// the slow threshold against the live fleet reference, the plane stays
	// quarantined. The probes passed functionally, so this does not count
	// toward the rebuild trigger — a rebuild cannot fix configured
	// slowness, and each probe pass advances a transient slow fault toward
	// its heal window.
	if p.slow.Load() && s.slowFactor > 0 && len(s.probes) > 0 {
		perProbe := time.Since(begin).Nanoseconds() / int64(len(s.probes))
		if ref := s.fastestOtherEwma(p); ref > 0 {
			threshold := int64(s.slowFactor * float64(ref))
			if threshold < s.slowFloorNs {
				threshold = s.slowFloorNs
			}
			if perProbe > threshold {
				return // still slow: wait for the fault to heal
			}
		}
	}
	if !p.state.CompareAndSwap(int32(from), int32(Healthy)) {
		return // now Draining or Detached: membership owns this plane
	}
	p.failedProbes.Store(0)
	if p.slow.Load() {
		// Forget the degraded latency history: a readmitted plane restarts
		// its EWMA cold, so stale slowness cannot re-trip the detector.
		p.slow.Store(false)
		p.latEwma.Store(0)
		p.slowStrikes.Store(0)
	}
	if from == Quarantined {
		p.readmits.Add(1)
		s.readmits.Add(1)
		s.m.AddReadmit()
	}
	s.publishGauges()
}

// tracedProbePass wraps one probe pass in a KindProbe span, so probe traffic
// shows up in the trace ring alongside the live requests it protects.
func (s *Supervisor) tracedProbePass(p *planeState, dst, src []core.Word) error {
	sp := s.tracer.Start(trace.KindProbe, time.Now(), s.n)
	sp.SetPlane(p.id)
	err := s.probePass(p, dst, src)
	s.tracer.Finish(sp, err)
	return err
}

// probePass routes the full probe set through the plane and verifies every
// delivery; the first failing probe aborts the pass.
func (s *Supervisor) probePass(p *planeState, dst, src []core.Word) error {
	return s.probeRouter(p.get(), p.id, dst, src)
}

// probeRouter is probePass against an arbitrary router — SwapPlane uses it
// to verify a replacement offline, before the router serves anything.
func (s *Supervisor) probeRouter(r Router, id int, dst, src []core.Word) error {
	for pi, probe := range s.probes {
		for i, dest := range probe {
			src[i] = core.Word{Addr: dest, Data: uint64(i)}
		}
		if err := r.RouteInto(dst, src); err != nil {
			return fmt.Errorf("plane %d: probe %d: %w", id, pi, err)
		}
		for j := range dst {
			if dst[j].Addr != j {
				return fmt.Errorf("plane %d: probe %d: output %d carries address %d: %w",
					id, pi, j, dst[j].Addr, neterr.ErrMisrouted)
			}
		}
	}
	return nil
}
