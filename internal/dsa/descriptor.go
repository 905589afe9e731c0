// Package dsa models the Intel Data Streaming Accelerator as described in
// §3 of the paper: an on-chip device with configurable groups of work queues
// (WQs) and processing engines (PEs), accepting 64-byte work descriptors via
// memory-mapped portals, executing data-streaming operations on shared
// virtual memory, and reporting results through completion records.
//
// The model is functional *and* timed: descriptors really move bytes in a
// mem.AddressSpace (so results are verifiable), while a calibrated cost
// model in timing.go produces the latency/throughput behaviour measured in
// the paper's Figs 2–15. RunOnCore runs the same descriptors on a simulated
// core as the software baseline, through the same kernels and footprint.
package dsa

import (
	"fmt"

	"dsasim/internal/dif"
	"dsasim/internal/mem"
)

// OpType is a DSA operation code (Table 1; numbering follows the DSA
// architecture specification's opcode groups).
type OpType uint8

// Operation codes supported by the device.
const (
	OpNop            OpType = 0x00
	OpBatch          OpType = 0x01
	OpDrain          OpType = 0x02
	OpMemmove        OpType = 0x03
	OpFill           OpType = 0x04
	OpCompare        OpType = 0x05
	OpComparePattern OpType = 0x06
	OpCreateDelta    OpType = 0x07
	OpApplyDelta     OpType = 0x08
	OpDualcast       OpType = 0x09
	OpCRCGen         OpType = 0x10
	OpCopyCRC        OpType = 0x11
	OpDIFCheck       OpType = 0x12
	OpDIFInsert      OpType = 0x13
	OpDIFStrip       OpType = 0x14
	OpDIFUpdate      OpType = 0x15
	OpCacheFlush     OpType = 0x20
)

// String returns the spec-style operation name.
func (o OpType) String() string {
	switch o {
	case OpNop:
		return "nop"
	case OpBatch:
		return "batch"
	case OpDrain:
		return "drain"
	case OpMemmove:
		return "memmove"
	case OpFill:
		return "fill"
	case OpCompare:
		return "compare"
	case OpComparePattern:
		return "compare_pattern"
	case OpCreateDelta:
		return "create_delta"
	case OpApplyDelta:
		return "apply_delta"
	case OpDualcast:
		return "dualcast"
	case OpCRCGen:
		return "crc_gen"
	case OpCopyCRC:
		return "copy_crc"
	case OpDIFCheck:
		return "dif_check"
	case OpDIFInsert:
		return "dif_insert"
	case OpDIFStrip:
		return "dif_strip"
	case OpDIFUpdate:
		return "dif_update"
	case OpCacheFlush:
		return "cache_flush"
	default:
		return fmt.Sprintf("op(%#x)", uint8(o))
	}
}

// Flags alter descriptor processing (a subset of the specification's
// descriptor flag word — the ones with performance-visible semantics).
type Flags uint32

// Descriptor flag bits.
const (
	// FlagBlockOnFault makes the device wait for the OS to resolve a page
	// fault and continue, instead of partially completing (§3.4 F1).
	FlagBlockOnFault Flags = 1 << iota
	// FlagCacheControl steers the destination write into the LLC (DDIO
	// path) rather than memory (§6.2 G3).
	FlagCacheControl
	// FlagReqCompletion requests a completion record write (always set by
	// the helper constructors; cleared only in ablation tests).
	FlagReqCompletion
	// FlagFence orders this descriptor after all previous descriptors in
	// the same batch have completed.
	FlagFence
	// FlagInterrupt requests a completion interrupt in addition to the
	// record write (the paper's clients poll or UMWAIT instead).
	FlagInterrupt
)

// Descriptor is the 64-byte work descriptor software submits through a
// portal (§3.2). Addresses are virtual addresses in the submitting process's
// address space, translated by the device through the ATC/IOMMU (PASID).
type Descriptor struct {
	Op     OpType
	Flags  Flags
	PASID  int
	Src    mem.Addr // source buffer (original buffer for delta ops)
	Src2   mem.Addr // second source: Compare's b, delta ops' modified buffer
	Dst    mem.Addr // destination buffer / delta record
	Dst2   mem.Addr // second destination (Dualcast)
	Size   int64    // transfer size in bytes
	MaxDst int64    // destination capacity (delta record limit)

	Pattern uint64 // Fill / ComparePattern 8-byte pattern
	CRCSeed uint32 // CRCGen / CopyCRC seed

	DIFBlock dif.BlockSize // DIF operations: data block size
	DIFTags  dif.Tags      // DIF tags to generate / check
	DIFTags2 dif.Tags      // DIFUpdate: the new tags

	// Batch fields (Op == OpBatch): Descs addresses an in-memory array of
	// work descriptors prepared by software; the device's batch processing
	// unit fetches and executes them (§3.4 F2).
	Descs []Descriptor

	// SubmitterSocket is the socket of the submitting core (filled by the
	// client submission path). The descriptor array a batch parent points
	// at lives in the submitter's pages, so the batch processing unit
	// prices its fetch against this socket's memory — a cross-socket
	// sub-batch pays the real UPI round trip, not node 0's latency.
	SubmitterSocket int

	// CompletionAddr is where the completion record is written. The model
	// delivers completions through a *Completion handle instead of raw
	// memory, but the address participates in timing (DDIO write).
	CompletionAddr mem.Addr
}

// Status is the completion status byte.
type Status uint8

// Completion statuses.
const (
	// StatusNone means the descriptor has not completed yet.
	StatusNone Status = iota
	// StatusSuccess is a fully successful completion.
	StatusSuccess
	// StatusPageFault reports a partial completion at a faulting address
	// (block-on-fault clear).
	StatusPageFault
	// StatusBadOpcode reports an unsupported operation.
	StatusBadOpcode
	// StatusBatchFail reports that one or more descriptors in a batch did
	// not complete successfully.
	StatusBatchFail
	// StatusRecordFull reports delta-record overflow (differences exceeded
	// MaxDst).
	StatusRecordFull
	// StatusDIFError reports a protection-information mismatch.
	StatusDIFError
	// StatusError is a catch-all for invalid descriptors (bad addresses,
	// misaligned sizes).
	StatusError
	// StatusWQError reports that the accepting work queue was disabled
	// while the descriptor was still queued; the descriptor was never
	// dispatched to an engine.
	StatusWQError
	// StatusDeviceOffline reports that the whole device went offline with
	// the descriptor still queued.
	StatusDeviceOffline
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusNone:
		return "none"
	case StatusSuccess:
		return "success"
	case StatusPageFault:
		return "page_fault"
	case StatusBadOpcode:
		return "bad_opcode"
	case StatusBatchFail:
		return "batch_fail"
	case StatusRecordFull:
		return "record_full"
	case StatusDIFError:
		return "dif_error"
	case StatusError:
		return "error"
	case StatusWQError:
		return "wq_error"
	case StatusDeviceOffline:
		return "device_offline"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// CompletionRecord is the result block the device writes when a descriptor
// finishes (§3.2 step 4).
type CompletionRecord struct {
	Status         Status
	BytesCompleted int64    // bytes processed before a partial completion
	Result         uint64   // CRC value, delta-record size, or mismatch offset
	Mismatch       bool     // Compare/ComparePattern: buffers differed
	FaultAddr      mem.Addr // faulting address for StatusPageFault
	Err            error    // model-level detail (not in real HW; aids tests)

	// Children holds the per-child completion records of a batch parent, in
	// submission order. Real DSA writes each batch child's record to its own
	// completion-record address; the model surfaces them on the parent so
	// result-producing children (CRC, compare, delta) keep their values when
	// fused into one batch — fenced pipeline chains read per-stage results
	// from here. Nil for non-batch descriptors.
	Children []CompletionRecord
}
