package dsa

import (
	"dsasim/internal/sim"
)

// Completion is the software-visible handle for one submitted descriptor:
// the model's stand-in for polling a completion record in memory. It records
// the submit → dispatch → finish timeline used by the latency-breakdown
// experiments (Fig 5).
//
// A Completion is also the device's queue entry for its descriptor: WQs,
// the group's batch queue and the engines hold the Completion itself, so
// each descriptor, batch children included, costs one allocation and one
// Descriptor copy.
type Completion struct {
	e    *sim.Engine
	rec  CompletionRecord
	done bool
	sig  sim.Signal

	// coal, when non-nil, moderates this completion's interrupt: the
	// record joins the coalescer's window when written, and intr is set
	// when the (possibly shared) interrupt fires. Poll and UMWAIT waits
	// ignore both — they observe the record directly.
	coal *Coalescer
	intr *intrDelivery

	// onDone, when set, runs after the record is written and waiters are
	// woken, passing back the completion and the tag stamped at
	// submission. The sharded submission plane uses it for completion
	// accounting and fault retries: the hook is one function stored per
	// plane, so arming it costs two word writes and no per-operation
	// closure.
	onDone    func(c *Completion, tag uint64)
	onDoneTag uint64

	// desc is the submitted descriptor: the copy the engine executes, and
	// the one completion hooks rebuild a remainder submission from after a
	// partial completion.
	desc Descriptor

	// Queue-entry links, fixed at submission.
	wq       *WQ         // accepting WQ (nil for batch children)
	parent   *batchState // the parent batch (nil unless a batch child)
	childIdx int         // position within the parent batch's children

	// Timeline instants (virtual time).
	SubmitTime   sim.Time
	DispatchTime sim.Time
	FinishTime   sim.Time
}

// complete records the result and wakes waiters.
func (c *Completion) complete(rec CompletionRecord) {
	c.rec = rec
	c.done = true
	c.FinishTime = c.e.Now()
	c.sig.Broadcast(c.e)
	if c.coal != nil {
		c.coal.observe(c)
	}
	if c.onDone != nil {
		c.onDone(c, c.onDoneTag)
	}
}

// SetOnDone arms the completion hook: fn(c, tag) runs when the record is
// written, after waiters are woken and the interrupt moderation window has
// observed the record.
func (c *Completion) SetOnDone(fn func(c *Completion, tag uint64), tag uint64) {
	c.onDone, c.onDoneTag = fn, tag
}

// Desc returns the descriptor this completion was created for.
func (c *Completion) Desc() *Descriptor { return &c.desc }

// Done reports whether the completion record has been written.
func (c *Completion) Done() bool { return c.done }

// Record returns the completion record; valid once Done reports true.
func (c *Completion) Record() CompletionRecord { return c.rec }

// Wait parks the calling process until the descriptor completes (event
// driven — the UMWAIT-style wait without the core-side accounting, which
// Client.Wait adds).
func (c *Completion) Wait(p *sim.Proc) {
	for !c.done {
		p.Wait(&c.sig)
	}
}

// Latency returns finish − submit; valid once done.
func (c *Completion) Latency() sim.Time { return c.FinishTime - c.SubmitTime }

// QueueTime returns dispatch − submit; valid once done.
func (c *Completion) QueueTime() sim.Time { return c.DispatchTime - c.SubmitTime }
