// The build constraint raises this file's language version to 1.23 for
// iter.Pull while go.mod stays at 1.22: a higher go line in go.mod would
// make the separate perfbench module need a go.mod update before it builds.
// The package therefore needs a Go 1.23 or newer toolchain.

//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Proc is a cooperative simulated process. A Proc runs as a coroutine
// (iter.Pull): the engine switches into it directly and it switches back
// when it parks, so exactly one of the engine and the processes executes at
// any moment and models using Procs remain deterministic and data-race free
// without locking. A park/resume round trip costs about 0.2 µs of host time
// (BenchmarkProcSwitch on a 2-vCPU Xeon VM).
//
// Inside the process function, call Sleep, Wait, or Yield to give control
// back to the engine; the process resumes when its wake condition fires. A
// panic in the process function comes out of the Engine.Run or RunUntil call
// that resumed it, with its original value.
type Proc struct {
	e     *Engine
	name  string
	next  func() (struct{}, bool) // resumes the process until it parks or returns
	yield func(struct{}) bool     // parks the process, inside its function only
	done  bool

	// wake is p.transfer captured once at creation: scheduling a method
	// value allocates a fresh closure per call, and the wait loops (a
	// polling client re-arms itself every PollGap) schedule one wake per
	// iteration. With the closure cached, Sleep/Yield/Wait run without
	// allocating in steady state.
	wake func()
}

// Go starts fn as a simulated process at the current virtual time. The name
// appears in deadlock panics only.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{e: e, name: name}
	// The stop function is not kept: a process ends its coroutine by
	// returning, and nothing ends it from outside while it is parked.
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
		p.done = true
		p.e.procs--
	})
	p.wake = p.transfer
	e.procs++
	e.After(0, p.wake)
	return p
}

// transfer switches from the engine to the process and returns once the
// process parks again (or finishes).
func (p *Proc) transfer() {
	if p.done {
		panic(fmt.Sprintf("sim: waking finished process %q", p.name))
	}
	p.next()
}

// park switches back to the engine and returns at the next transfer.
func (p *Proc) park() { p.yield(struct{}{}) }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Sleep suspends the process for virtual duration d.
func (p *Proc) Sleep(d Time) {
	p.e.After(d, p.wake)
	p.park()
}

// SleepUntil suspends the process until virtual instant t (no-op if t has
// passed).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.e.now {
		return
	}
	p.e.At(t, p.wake)
	p.park()
}

// Yield reschedules the process at the current instant, letting other events
// with the same timestamp run first.
func (p *Proc) Yield() {
	p.e.After(0, p.wake)
	p.park()
}

// Wait parks the process until s is signalled.
func (p *Proc) Wait(s *Signal) {
	if s.first == nil {
		s.first = p
	} else {
		s.rest = append(s.rest, p)
	}
	p.park()
}

// Signal is a broadcast wake-up point for processes, akin to a condition
// variable. The zero value is ready to use.
//
// The first waiter is held inline and later ones in a slice that Broadcast
// empties but keeps, so a Wait/Broadcast cycle allocates nothing once the
// slice has grown to the largest waiter count (and never with one waiter,
// the per-op completion case).
type Signal struct {
	first *Proc   // earliest waiter, nil when none
	rest  []*Proc // later waiters in wait order
}

// Broadcast wakes every process currently waiting on s. Wake-ups are
// scheduled at the current instant in wait order.
func (s *Signal) Broadcast(e *Engine) {
	if s.first == nil {
		return
	}
	e.After(0, s.first.wake)
	s.first = nil
	for _, p := range s.rest {
		e.After(0, p.wake)
	}
	clear(s.rest)
	s.rest = s.rest[:0]
}

// Waiters reports how many processes are parked on s.
func (s *Signal) Waiters() int {
	if s.first == nil {
		return 0
	}
	return 1 + len(s.rest)
}
