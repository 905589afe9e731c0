// Operation pipelines: fused multi-op DAGs (§4/§6, ROADMAP item 4).
//
// The paper's central software lesson is that DSA wins come from amortizing
// fixed costs — descriptor preparation, the portal write, engine setup, the
// completion round trip — across chained work. A Pipeline lets a caller
// declare a small DAG of dependent transform stages (DIF-strip → CRC →
// move, decompress → CRC → move, ...) and submits every run of consecutive
// device stages as ONE fenced batch: one admission token, one portal write,
// one completion window for the whole chain, with FlagFence encoding the
// level ordering inside the batch (the device's issueReady barrier). The
// sequential alternative pays the full submit→wait round trip between every
// stage — the pipeline experiment measures the gap.
//
// Stages that no DSA opcode covers (ISA-L decompression, fabric sends) run
// through the StageExecutor interface on the same sim timeline: the driver
// flushes the pending chain, runs the software stage on the tenant's core,
// and resumes fusing. Placement is intermediate-buffer-aware: most of a
// pipeline's operands are scratch intermediates that do not exist until the
// pipeline picks a socket, so PipelineSocket scores candidates by queueing
// delay plus the UPI penalty of the *fixed* legs only, and AllocScratch
// then pins the intermediates (and with them every stage) to the winner.
package offload

import (
	"fmt"

	"dsasim/internal/dif"
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// Ref names one stage operand: either a fixed address that exists before
// the pipeline runs (At), or a scratch intermediate the pipeline allocates
// on the placement-chosen socket at Submit (Pipeline.Scratch). The zero Ref
// means "operand unused".
type Ref struct {
	addr mem.Addr
	sc   int // 1+index into the pipeline's scratch declarations; 0 = fixed
	off  int64
}

// At references a fixed address (an existing buffer).
func At(a mem.Addr) Ref { return Ref{addr: a} }

// Off offsets the reference by n bytes.
func (r Ref) Off(n int64) Ref { r.off += n; return r }

// set reports whether the operand is used.
func (r Ref) set() bool { return r != Ref{} }

// StageIO is the resolved operand view handed to a StageExecutor once the
// pipeline has placed its scratch buffers.
type StageIO struct {
	Src, Dst mem.Addr
	Size     int64 // stage input size
	MaxDst   int64 // output bound for expanding stages (0: same as Size)
}

// StageExecutor runs one non-DSA pipeline stage on the sim timeline. Run
// executes in the pipeline driver process after every earlier level has
// completed; it should sleep the stage's modelled duration on p (charging
// the tenant's core where appropriate) and return the stage's result value.
// Engine names the executing engine type for reports.
type StageExecutor interface {
	Engine() string
	Run(p *sim.Proc, t *Tenant, io StageIO) (uint64, error)
}

// Inflate is the ISA-L software decompression stage (DSA has no decompress
// opcode): it inflates Size compressed bytes at Src into at most MaxDst
// bytes at Dst on the tenant's core and returns the produced length.
type Inflate struct{}

// Engine implements StageExecutor.
func (Inflate) Engine() string { return "isal" }

// Run implements StageExecutor.
func (Inflate) Run(p *sim.Proc, t *Tenant, io StageIO) (uint64, error) {
	n, dur, err := t.Core.Decompress(io.Dst, io.Src, io.Size, io.MaxDst)
	if err != nil {
		return 0, err
	}
	p.Sleep(dur)
	return uint64(n), nil
}

// SoftCRC32 is the ISA-L software CRC stage, for pipelines that keep the
// digest on the core (e.g. when the device stages saturate the WQ).
type SoftCRC32 struct{ Seed uint32 }

// Engine implements StageExecutor.
func (SoftCRC32) Engine() string { return "isal" }

// Run implements StageExecutor.
func (s SoftCRC32) Run(p *sim.Proc, t *Tenant, io StageIO) (uint64, error) {
	rec, dur := dsa.RunOnCore(t.Core, &dsa.Descriptor{Op: dsa.OpCRCGen, Src: io.Src, Size: io.Size, CRCSeed: s.Seed})
	res, err := decode(dsa.OpCRCGen, rec)
	if err != nil {
		return 0, err
	}
	p.Sleep(dur)
	return uint64(res.CRC), nil
}

// FabricSend streams the stage's source bytes into a fabric pipe (NIC,
// inter-node link) — the terminal stage of a transform-then-transmit
// pipeline. The driver blocks until the pipe drains the payload.
type FabricSend struct{ Pipe *sim.Pipe }

// Engine implements StageExecutor.
func (FabricSend) Engine() string { return "fabric" }

// Run implements StageExecutor.
func (f FabricSend) Run(p *sim.Proc, t *Tenant, io StageIO) (uint64, error) {
	done := f.Pipe.Reserve(io.Size)
	if now := p.Now(); done > now {
		p.Sleep(done - now)
	}
	return uint64(io.Size), nil
}

// Stage is a handle to one pipeline stage, used to declare dependencies
// (After) and to read the stage's result once the pipeline completes.
type Stage struct {
	pl *Pipeline
	i  int
}

// Result returns the stage's op-specific result value (CRC, delta-record
// size, produced bytes), valid once the pipeline's Future has resolved.
func (s *Stage) Result() uint64 { return s.pl.stages[s.i].result }

// Output returns the resolved address of the stage's destination operand,
// valid once Submit has placed the pipeline's scratch buffers.
func (s *Stage) Output() mem.Addr { return s.pl.resolve(s.pl.stages[s.i].dst) }

// StageOption customizes one stage at declaration.
type StageOption func(*pstage)

// After declares dependencies: the stage runs only after every listed stage
// completes. Stages without dependencies form the DAG's first level.
func After(deps ...*Stage) StageOption {
	return func(st *pstage) { st.deps = append(st.deps, deps...) }
}

// pstage is the internal stage record: a descriptor template whose operand
// addresses are re-resolved from the Refs at every Submit, or a software
// executor, plus the DAG level computed from its dependencies.
type pstage struct {
	d    dsa.Descriptor // template for device stages (op, size, op params)
	exec StageExecutor  // non-nil for software/fabric stages

	src, src2, dst Ref

	deps   []*Stage
	level  int
	result uint64
}

// Pipeline is one declared DAG. Declare stages once, then Submit per
// iteration: a pipeline is reusable after its Future resolves (scratch
// buffers recycle through the tenant pool and stage state is reset), which
// keeps steady-state submission allocation-light. A Pipeline must not be
// re-submitted while a previous submission is still in flight.
type Pipeline struct {
	t      *Tenant
	stages []pstage
	err    error

	scratchSizes []int64
	scratchBufs  []*mem.Buffer

	// Reused driver buffers.
	order    []int
	chain    []dsa.Descriptor
	chainIdx []int
	legs     []PipelineLeg

	// home is the socket the last Submit placed the pipeline on.
	home int

	// hardware records whether the running submission put any chain on
	// the device (its Result.Hardware).
	hardware bool

	// failed is the index of the stage whose fault ended the last
	// submission (-1 when the last run succeeded). Stages after it in a
	// fenced chain were poisoned — never attempted — by the device's
	// fence barrier.
	failed int
}

// NewPipeline starts an empty pipeline DAG for the tenant.
func (t *Tenant) NewPipeline() *Pipeline { return &Pipeline{t: t, home: -1, failed: -1} }

// FailedStage returns the index (declaration order) of the stage whose
// fault ended the last submission, or -1 when it succeeded. Valid once
// the submission's Future has resolved.
func (pl *Pipeline) FailedStage() int { return pl.failed }

// Scratch declares a size-byte intermediate buffer. It is allocated (from
// the tenant's scratch pool) on the pipeline's chosen socket at Submit and
// released when the pipeline completes — referencing it is what makes a
// stage's placement follow the intermediate data.
func (pl *Pipeline) Scratch(size int64) Ref {
	pl.scratchSizes = append(pl.scratchSizes, size)
	return Ref{sc: len(pl.scratchSizes)}
}

// add appends one stage, computing its DAG level from its dependencies.
func (pl *Pipeline) add(st pstage, opts []StageOption) *Stage {
	for _, o := range opts {
		o(&st)
	}
	for _, dep := range st.deps {
		if dep == nil || dep.pl != pl {
			pl.err = fmt.Errorf("offload: pipeline stage depends on a stage of another pipeline")
			continue
		}
		if l := pl.stages[dep.i].level + 1; l > st.level {
			st.level = l
		}
	}
	pl.stages = append(pl.stages, st)
	return &Stage{pl: pl, i: len(pl.stages) - 1}
}

// Copy appends a device move stage.
func (pl *Pipeline) Copy(dst, src Ref, n int64, opts ...StageOption) *Stage {
	return pl.add(pstage{d: memmoveOp(0, 0, n), src: src, dst: dst}, opts)
}

// Fill appends a device pattern-fill stage.
func (pl *Pipeline) Fill(dst Ref, n int64, pattern uint64, opts ...StageOption) *Stage {
	return pl.add(pstage{d: fillOp(0, n, pattern), dst: dst}, opts)
}

// CRC32 appends a device CRC-generation stage; the stage Result is the CRC.
func (pl *Pipeline) CRC32(src Ref, n int64, seed uint32, opts ...StageOption) *Stage {
	return pl.add(pstage{d: crcOp(0, n, seed), src: src}, opts)
}

// CopyCRC appends a fused device copy+CRC stage.
func (pl *Pipeline) CopyCRC(dst, src Ref, n int64, seed uint32, opts ...StageOption) *Stage {
	return pl.add(pstage{d: copyCRCOp(0, 0, n, seed), src: src, dst: dst}, opts)
}

// Compare appends a device compare stage; Result is the mismatch offset.
func (pl *Pipeline) Compare(a, b Ref, n int64, opts ...StageOption) *Stage {
	return pl.add(pstage{d: compareOp(0, 0, n), src: a, src2: b}, opts)
}

// DIFStrip appends a device DIF verify-and-strip stage over n protected
// bytes.
func (pl *Pipeline) DIFStrip(dst, src Ref, n int64, bs dif.BlockSize, tags dif.Tags, opts ...StageOption) *Stage {
	return pl.add(pstage{d: difOp(dsa.OpDIFStrip, 0, 0, n, bs, tags, dif.Tags{}), src: src, dst: dst}, opts)
}

// DIFInsert appends a device DIF protection-insert stage over n raw bytes.
func (pl *Pipeline) DIFInsert(dst, src Ref, n int64, bs dif.BlockSize, tags dif.Tags, opts ...StageOption) *Stage {
	return pl.add(pstage{d: difOp(dsa.OpDIFInsert, 0, 0, n, bs, tags, dif.Tags{}), src: src, dst: dst}, opts)
}

// CreateDelta appends a device delta-record stage; Result is the record
// bytes used.
func (pl *Pipeline) CreateDelta(record, orig, mod Ref, n, maxRecord int64, opts ...StageOption) *Stage {
	return pl.add(pstage{d: createDeltaOp(0, 0, 0, n, maxRecord), src: orig, src2: mod, dst: record}, opts)
}

// Exec appends a software/fabric stage run through x. n is the stage input
// size; maxDst bounds the output for expanding stages (0 means n).
func (pl *Pipeline) Exec(x StageExecutor, dst, src Ref, n, maxDst int64, opts ...StageOption) *Stage {
	return pl.add(pstage{d: dsa.Descriptor{Size: n, MaxDst: maxDst}, exec: x, src: src, dst: dst}, opts)
}

// Decompress appends an ISA-L inflate stage (software: DSA has no
// decompress opcode); Result is the produced byte count.
func (pl *Pipeline) Decompress(dst, src Ref, n, maxDst int64, opts ...StageOption) *Stage {
	return pl.Exec(Inflate{}, dst, src, n, maxDst, opts...)
}

// Send appends a fabric-send stage streaming n bytes from src into pipe.
func (pl *Pipeline) Send(pipe *sim.Pipe, src Ref, n int64, opts ...StageOption) *Stage {
	return pl.Exec(FabricSend{Pipe: pipe}, Ref{}, src, n, 0, opts...)
}

// Home returns the socket the last Submit placed the pipeline on (-1 before
// the first submission).
func (pl *Pipeline) Home() int { return pl.home }

// resolve maps a Ref to its concrete address for the current submission.
func (pl *Pipeline) resolve(r Ref) mem.Addr {
	if r.sc == 0 {
		return r.addr + mem.Addr(r.off)
	}
	return pl.scratchBufs[r.sc-1].Addr(r.off)
}

// homeSocket scores candidate sockets for this submission by the fixed data
// legs only (see PipelineSocket) — scratch intermediates follow the choice.
func (pl *Pipeline) homeSocket() int {
	t := pl.t
	fallback := t.Core.Socket
	if !t.S.dataAware || t.S.topo == nil {
		return fallback
	}
	pl.legs = pl.legs[:0]
	for i := range pl.stages {
		st := &pl.stages[i]
		pl.addLeg(st.src, st.d.Size, false)
		pl.addLeg(st.src2, st.d.Size, false)
		pl.addLeg(st.dst, st.d.Size, true)
	}
	return PipelineSocket(t.S.topo, pl.legs, fallback)
}

// addLeg records one fixed operand as a placement leg; scratch operands are
// skipped — they live wherever the pipeline lands, by construction.
func (pl *Pipeline) addLeg(r Ref, size int64, write bool) {
	if !r.set() || r.sc != 0 {
		return
	}
	n := pl.t.AS.NodeAt(r.addr + mem.Addr(r.off))
	if n == nil {
		return
	}
	pl.legs = append(pl.legs, PipelineLeg{Node: n, Size: size, Write: write})
}

// buildOrder fills pl.order with stage indices sorted by level (stable:
// declaration order within a level), allocation-free at steady state.
func (pl *Pipeline) buildOrder() {
	pl.order = pl.order[:0]
	maxLevel := 0
	for i := range pl.stages {
		if pl.stages[i].level > maxLevel {
			maxLevel = pl.stages[i].level
		}
	}
	for l := 0; l <= maxLevel; l++ {
		for i := range pl.stages {
			if pl.stages[i].level == l {
				pl.order = append(pl.order, i)
			}
		}
	}
}

// Submit places, compiles, and launches the pipeline, returning a Future
// that resolves when the final stage completes. The whole DAG costs one
// admission token. The driver runs as its own sim process: consecutive
// device levels are fused into fenced batch chains — one portal write and
// one completion wait per chain — with software stages executed between
// chains. Submit returns as soon as the driver is launched, so callers can
// keep several pipelines in flight.
func (pl *Pipeline) Submit(p *sim.Proc) (*Future, error) {
	t := pl.t
	if pl.err != nil {
		return nil, pl.err
	}
	if len(pl.stages) == 0 {
		return nil, fmt.Errorf("offload: empty pipeline")
	}
	if err := t.admit(p, p.Now(), &t.bucket, 1); err != nil {
		return nil, err
	}
	t.stats.pipelines.Add(1)
	pl.home = pl.homeSocket()
	pl.scratchBufs = pl.scratchBufs[:0]
	for _, size := range pl.scratchSizes {
		pl.scratchBufs = append(pl.scratchBufs, t.AllocScratch(size, pl.home))
	}
	for i := range pl.stages {
		pl.stages[i].result = 0
	}
	pl.failed = -1
	pl.buildOrder()
	run := &pipeRun{}
	f := &Future{t: t, run: run, op: dsa.OpBatch, start: p.Now()}
	t.S.E.Go("pipeline", func(dp *sim.Proc) {
		pl.drive(dp, run)
	})
	return f, nil
}

// drive walks the DAG level by level: device stages accumulate into the
// current fenced chain (a fence opens every new level, so the device's
// issueReady barrier enforces the dependency order inside one batch), and a
// level containing software stages first flushes the chain — its results
// are inputs — then runs them inline. Chains are bounded by the device
// batch limit; a chain cut mid-level flushes and the remainder continues
// unfenced (the flush wait is a stronger barrier than the fence it
// replaces).
func (pl *Pipeline) drive(p *sim.Proc, run *pipeRun) {
	pl.chain, pl.chainIdx, pl.hardware = pl.chain[:0], pl.chainIdx[:0], false
	err := pl.walk(p)
	for _, b := range pl.scratchBufs {
		pl.t.FreeScratch(b)
	}
	res := Result{Hardware: pl.hardware}
	if err == nil {
		res.Record = dsa.CompletionRecord{Status: dsa.StatusSuccess, Result: uint64(len(pl.stages))}
	}
	run.finish(pl.t.S.E, res, err)
}

// walk runs the DAG's levels in order, returning the first stage error.
func (pl *Pipeline) walk(p *sim.Proc) error {
	maxChain := pl.t.S.maxBatch
	if maxChain < 2 {
		maxChain = 2
	}
	for i := 0; i < len(pl.order); {
		level := pl.stages[pl.order[i]].level
		j := i
		hasExec := false
		for ; j < len(pl.order) && pl.stages[pl.order[j]].level == level; j++ {
			if pl.stages[pl.order[j]].exec != nil {
				hasExec = true
			}
		}
		if hasExec {
			// Software stages read the previous levels' outputs: the chain
			// must land before they run.
			if err := pl.flush(p); err != nil {
				return err
			}
			for _, si := range pl.order[i:j] {
				st := &pl.stages[si]
				if st.exec == nil {
					continue
				}
				io := StageIO{
					Src:    pl.resolve(st.src),
					Dst:    pl.resolve(st.dst),
					Size:   st.d.Size,
					MaxDst: st.d.MaxDst,
				}
				if io.MaxDst == 0 {
					io.MaxDst = io.Size
				}
				res, err := st.exec.Run(p, pl.t, io)
				if err != nil {
					return err
				}
				st.result = res
			}
		}
		newLevel := true
		for _, si := range pl.order[i:j] {
			st := &pl.stages[si]
			if st.exec != nil {
				continue
			}
			if len(pl.chain) >= maxChain {
				if err := pl.flush(p); err != nil {
					return err
				}
			}
			d := st.d
			d.Src = pl.resolve(st.src)
			d.Src2 = pl.resolve(st.src2)
			d.Dst = pl.resolve(st.dst)
			if newLevel && len(pl.chain) > 0 {
				// The first device stage of a new level fences the chain:
				// everything queued so far must complete before this level
				// issues (engine.go issueReady).
				d.Flags |= dsa.FlagFence
			}
			pl.chain = append(pl.chain, d)
			pl.chainIdx = append(pl.chainIdx, si)
			newLevel = false
		}
		i = j
	}
	return pl.flush(p)
}

// flush submits the pending chain pinned to the pipeline's socket and
// waits for it. A batch chain whose first failure is a recoverable fault
// is re-run whole within the retry budget: the chain's ops are idempotent
// by construction (they write scratch or their declared outputs), so
// re-running already-applied children is safe, and the fence barrier
// poisoned — never ran — everything past the fault. Lone-descriptor
// chains already recovered on the Future path; a surviving error there is
// terminal.
func (pl *Pipeline) flush(p *sim.Proc) error {
	if len(pl.chain) == 0 {
		return nil
	}
	t := pl.t
	for retries := 0; ; {
		f, err := t.submitChain(p, chain{descs: pl.chain, pinned: true, socket: pl.home})
		if err != nil {
			return err
		}
		pl.hardware = true
		f.ownerRetries = true
		f.await(p, t.policy.Wait)
		res, err := f.res, f.err
		if err != nil {
			if k := firstFailedChild(&res.Record); k >= 0 {
				if _, retry := t.retryFault(res.Record.Children[k].Status, retries); retry {
					retries++
					t.retried()
					if t.policy.RetryBackoff > 0 {
						p.Sleep(sim.Time(t.policy.RetryBackoff))
					}
					continue
				}
			}
			t.stats.failures.Add(1)
			return pl.chainError(&res.Record, err)
		}
		if len(pl.chainIdx) == 1 {
			pl.stages[pl.chainIdx[0]].result = res.Record.Result
		} else {
			for k, rec := range res.Record.Children {
				pl.stages[pl.chainIdx[k]].result = rec.Result
			}
		}
		pl.chain = pl.chain[:0]
		pl.chainIdx = pl.chainIdx[:0]
		return nil
	}
}

// firstFailedChild returns the index of the first child record that
// completed with a failure status, or -1 (success, a non-batch record,
// or only poisoned StatusNone children — the latter cannot happen: a
// poisoned batch has a failed child before the fence).
func firstFailedChild(rec *dsa.CompletionRecord) int {
	for k := range rec.Children {
		if s := rec.Children[k].Status; s != dsa.StatusSuccess && s != dsa.StatusNone {
			return k
		}
	}
	return -1
}

// chainError maps a failed chain wait onto the pipeline stage that
// caused it, recording it in pl.failed and wrapping the error with the
// stage identity. For a batch chain the failing stage is the first
// failed child (later same-chain stages were poisoned by the fence and
// hold StatusNone "never attempted" records); a lone-descriptor chain is
// its only stage. The fault sentinels (ErrFaulted, ErrDeviceFailed)
// stay in the chain via faultError, so errors.Is holds through the
// pipeline Future.
func (pl *Pipeline) chainError(rec *dsa.CompletionRecord, err error) error {
	stage, cause := -1, err
	if k := firstFailedChild(rec); k >= 0 && k < len(pl.chainIdx) {
		stage = pl.chainIdx[k]
		if ferr := faultError(rec.Children[k]); ferr != nil {
			cause = ferr
		}
	} else if len(pl.chainIdx) == 1 {
		stage = pl.chainIdx[0]
	}
	if stage < 0 {
		return err
	}
	pl.failed = stage
	return fmt.Errorf("offload: pipeline stage %d (%v): %w", stage, pl.stages[stage].d.Op, cause)
}
