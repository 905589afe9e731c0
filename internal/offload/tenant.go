package offload

import (
	"errors"
	"fmt"

	"dsasim/internal/cpu"
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// ErrTenantClosed is returned (wrapped) by every submission path of a
// tenant retired with Close. Futures already in flight at Close are not
// affected — they remain waitable and resolve normally.
var ErrTenantClosed = errors.New("tenant closed")

// Tenant is one client of the service: a PASID-bound address space and a
// submitting core, with its own policy, batcher, and counters. Tenants
// sharing a shared-mode WQ model true multi-process submission: each
// ENQCMD carries its own PASID, and the device resolves the address space
// per descriptor.
type Tenant struct {
	S    *Service
	AS   *mem.AddressSpace
	Core *cpu.Core

	class   QoSClass
	policy  Policy
	bucket  tokenBucket
	batcher *AutoBatcher
	clients map[*dsa.WQ]*dsa.Client

	// stats holds the live counters; Stats returns a copy with Drifts
	// filled in from the telemetry plane.
	stats Stats

	// plane, when non-nil, is the tenant's sharded submission front end
	// (one per tenant; see NewPlane).
	plane *Plane

	// scratch pools released intermediate buffers by (node, size) so
	// pipeline flushes reuse instead of allocating (see scratch.go).
	scratch map[scratchKey][]*mem.Buffer

	// coal is the tenant's completion coalescer — one moderation vector
	// shared by every per-WQ client, so completions coalesce across WQs
	// and devices (a split batch's sub-batch interrupts merge into one
	// delivery per window). coalCount/coalWindow memoize the resolved
	// policy knobs so SetPolicy rebuilds the coalescer only when they
	// actually change; in-flight completions keep the window they were
	// submitted under.
	coal       *dsa.Coalescer
	coalCount  int
	coalWindow sim.Time

	// closed marks a retired tenant (Close).
	closed bool
}

// Close retires the tenant: its queued auto-batch is flushed so no future
// is stranded unflushed, and every later submission — classic, plane lane,
// pipeline, or software fallback — fails with ErrTenantClosed. Operations
// already in flight are unaffected: their futures remain waitable and
// resolve through the normal completion path (the churn tests pin this,
// including under interrupt coalescing, where a closed tenant's last
// window still delivers). Closing an already-closed tenant is an error.
//
// Fleet-style churn closes tenants with work outstanding as a matter of
// course; the service keeps the PASID binding (address-space teardown is
// out of scope for the simulation), so a replacement tenant is simply
// NewTenant again.
func (t *Tenant) Close(p *sim.Proc) error {
	if t.closed {
		return fmt.Errorf("offload: close: %w", ErrTenantClosed)
	}
	if t.batcher != nil {
		t.batcher.Flush(p)
	}
	t.closed = true
	return nil
}

// Closed reports whether the tenant has been retired with Close.
func (t *Tenant) Closed() bool { return t.closed }

// settle is the one outcome rule: an accepted operation the caller sees
// settles exactly once, SLOOk when it succeeded within Policy.SLOBudget
// and SLOMiss when it was late or failed. No-op without a budget.
func (t *Tenant) settle(lat sim.Time, ok bool) {
	b := sim.Time(t.policy.SLOBudget)
	if b <= 0 {
		return
	}
	if ok && lat <= b {
		t.stats.SLOOk++
	} else {
		t.stats.SLOMiss++
	}
}

// Policy returns the tenant's active policy.
func (t *Tenant) Policy() Policy { return t.policy }

// SetPolicy replaces the tenant's policy (taking effect on the next
// operation; a pending auto-batch keeps its queued descriptors, and the
// admission bucket keeps its accrued tokens).
func (t *Tenant) SetPolicy(p Policy) { t.policy = p }

// Class returns the tenant's QoS class.
func (t *Tenant) Class() QoSClass { return t.class }

// Stats returns a copy of the tenant counters. Drifts is read live from
// the telemetry plane: the regime shifts flagged on this tenant's
// completion streams so far.
func (t *Tenant) Stats() Stats {
	s := t.stats
	s.Drifts = t.S.met.tenantDrifts(t.AS.PASID)
	return s
}

// client returns the tenant's accounting client for wq, creating it on
// first use (and late-binding the PASID for WQs added after the tenant).
func (t *Tenant) client(wq *dsa.WQ) *dsa.Client {
	cl, ok := t.clients[wq]
	if !ok {
		wq.Dev.BindPASID(t.AS)
		cl = dsa.NewClient(wq, t.Core)
		t.clients[wq] = cl
	}
	return cl
}

// Coalescer returns the tenant's interrupt-moderation state per the
// resolved policy, or nil when the tenant's class delivers per descriptor.
// The coalescer is shared by all of the tenant's clients and rebuilt when
// the resolved knobs change.
func (t *Tenant) Coalescer() *dsa.Coalescer {
	count, window := t.coalesceParams()
	if count <= 1 {
		t.coal, t.coalCount, t.coalWindow = nil, count, window
		return nil
	}
	if t.coal != nil && count == t.coalCount && window != t.coalWindow && t.policy.CoalesceAdaptive {
		// Adaptive windows are re-estimated per submission; retune the
		// coalescer only on a ≥25% move, so inter-arrival jitter does not
		// churn rebuilds (each rebuild starts a fresh delivery window).
		diff := window - t.coalWindow
		if diff < 0 {
			diff = -diff
		}
		if 4*diff < t.coalWindow {
			window = t.coalWindow
		}
	}
	if t.coal == nil || t.coalCount != count || t.coalWindow != window {
		t.coal = dsa.NewCoalescer(t.S.E, count, window, t.S.coalesceTick())
		t.coalCount, t.coalWindow = count, window
	}
	return t.coal
}

// localNode returns the DRAM node on the tenant's socket (not merely the
// socket's first node, which can be a CXL expander). NewTenant verified
// the socket has at least one node, so the fallback cannot panic.
func (t *Tenant) localNode() *mem.Node {
	sock := t.S.Sys.SocketOf(t.Core.Socket)
	for _, n := range sock.Nodes {
		if n.Kind == mem.DRAM {
			return n
		}
	}
	return sock.Nodes[0]
}

// Alloc allocates a buffer on the tenant's local DRAM node. Additional
// mem options (page size, lazy mapping, explicit node) are honored; an
// explicit mem.OnNode placement overrides the local default.
func (t *Tenant) Alloc(size int64, opts ...mem.AllocOption) *mem.Buffer {
	opts = append([]mem.AllocOption{mem.OnNode(t.localNode())}, opts...)
	return t.AS.Alloc(size, opts...)
}

// AllocOn allocates on the platform node with the given id (0 = socket-0
// DRAM, 1 = socket-1 DRAM, 2 = CXL on SPR), so tiered-memory placement
// never needs to reach into the memory system directly.
func (t *Tenant) AllocOn(node int, size int64, opts ...mem.AllocOption) *mem.Buffer {
	opts = append([]mem.AllocOption{mem.OnNode(t.S.Sys.Node(node))}, opts...)
	return t.AS.Alloc(size, opts...)
}

// submitCfg collects per-operation options.
type submitCfg struct {
	path    Path
	noBatch bool
}

// OpOption customizes one operation.
type OpOption func(*submitCfg)

// On forces the execution path (overriding the Auto policy).
func On(path Path) OpOption { return func(c *submitCfg) { c.path = path } }

// NoBatch bypasses the AutoBatcher for this operation.
func NoBatch() OpOption { return func(c *submitCfg) { c.noBatch = true } }

// admit is the one admission decision. Ops, batches, AutoBatcher flushes
// and pipelines charge the tenant's bucket (shards 1); a plane lane
// charges its own bucket with a 1/shards share of the rate and burst (at
// least one, so every lane can issue a back-to-back submission). A closed
// tenant is refused. Over the limit the submission is shed with
// ErrAdmission or, under Policy.AdmitWait, delayed until a token accrues.
func (t *Tenant) admit(p *sim.Proc, b *tokenBucket, shards int) error {
	rate, burst := t.policy.AdmitRate/float64(shards), max(t.policy.AdmitBurst/shards, 1)
	var floor sim.Time
	now := p.Now()
	for waited := false; ; waited = true {
		// Checked on every pass: an admission wait may sleep across a Close.
		if t.closed {
			return fmt.Errorf("offload: %w", ErrTenantClosed)
		}
		ok, wait := b.take(now, rate, burst)
		if ok {
			return nil
		}
		if !waited {
			if !t.policy.AdmitWait {
				t.stats.Shed++
				return ErrAdmission
			}
			t.stats.Delayed++
			// Fold the retry cadence into the tenant's interrupt-moderation
			// window: waking the moment one token accrues burns one wakeup
			// per delayed sub-batch, and each such wakeup delivers into a
			// window that was going to close later anyway. Sleeping at least
			// one coalescing window per retry batches the wakeups the same
			// way deliveries are batched; the bucket keeps accruing while we
			// sleep, so admitted throughput is unchanged. Non-coalescing
			// tenants (count ≤ 1) keep the exact wait.
			if count, window := t.coalesceParams(); count > 1 {
				floor = window
			}
		}
		p.Sleep(max(wait, floor))
		t.stats.AdmitWakeups++
		now = p.Now()
	}
}

// stamp binds a descriptor to the tenant's PASID before it reaches a WQ or
// ring.
func (t *Tenant) stamp(d *dsa.Descriptor) { d.PASID = t.AS.PASID }

// accepted counts one descriptor a WQ portal or plane ring took, carrying
// bytes of payload (a batch parent's is its children's).
func (t *Tenant) accepted(bytes int64) {
	t.stats.HWOps++
	t.stats.HWBytes += bytes
}

// request builds the scheduler request for one descriptor, resolving the
// home nodes of the data it reads and writes. For a batch parent the first
// child stands in for the whole batch: submitChain groups children by
// home socket before submitting, so any child's home is the slice's.
func (t *Tenant) request(d *dsa.Descriptor) Request {
	req := Request{
		Socket:    t.Core.Socket,
		Class:     t.class,
		Size:      d.Size,
		Topo:      t.S.topo,
		LoadAware: t.policy.LoadAware,
	}
	if !t.S.dataAware {
		// No scheduler will read the data homes; skip the lookups.
		return req
	}
	src, dst := d.Src, d.Dst
	if d.Op == dsa.OpBatch && len(d.Descs) > 0 {
		src, dst = d.Descs[0].Src, d.Descs[0].Dst
	}
	if src != 0 {
		req.SrcNode = t.AS.NodeAt(src)
	}
	if dst != 0 {
		req.DstNode = t.AS.NodeAt(dst)
	}
	return req
}

// dataHome resolves the socket one queued descriptor's data places it on,
// falling back to the tenant's socket when the descriptor carries no
// placement information. The batch paths group descriptors by this key.
func (t *Tenant) dataHome(d *dsa.Descriptor) int {
	var src, dst *mem.Node
	if d.Src != 0 {
		src = t.AS.NodeAt(d.Src)
	}
	if d.Dst != 0 {
		dst = t.AS.NodeAt(d.Dst)
	}
	if s, ok := dataSocket(src, dst); ok {
		return s
	}
	return t.Core.Socket
}
