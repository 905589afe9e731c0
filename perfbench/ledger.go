package main

import (
	"bytes"
	"fmt"

	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

// opState is where an attempted operation ended.
type opState uint8

const (
	pending opState = iota
	opOK
	opShed
	opFailed
)

// slots is a buffer carved into equal payload slots. Destination slot sets
// track which operation last claimed each slot and how many are in flight
// on it, so a sampled copy is checked only when nothing else can have
// written its slot between its submission and its completion.
type slots struct {
	buf      *mem.Buffer
	size     int64
	n        int
	next     int
	inflight []int32
	owner    []int32
	crc      []uint32 // source sets: hash/crc32 IEEE of each slot, seed 0
}

func newSlots(buf *mem.Buffer, size int64, n int) *slots {
	return &slots{buf: buf, size: size, n: n, inflight: make([]int32, n), owner: make([]int32, n)}
}

func (s *slots) addr(k int) mem.Addr { return s.buf.Addr(int64(k) * s.size) }
func (s *slots) bytes(k int) []byte  { return s.buf.Slice(int64(k)*s.size, s.size) }

// rotate returns the next slot in round-robin order.
func (s *slots) rotate() int {
	k := s.next
	s.next = (s.next + 1) % s.n
	return k
}

// poison fills a sampled destination slot before its copy is issued, so a
// copy that never lands cannot pass the check on stale bytes.
var poison = bytes.Repeat([]byte{0xA5}, 64<<10)

// ledger records every attempted operation of one simulation run and
// checks the run's outputs: each operation ends exactly once, and a seeded
// sample of copies lands byte for byte.
type ledger struct {
	states  []opState
	armed   []bool
	sampler *sim.Rand
	every   int // sample one copy in every

	checked, mismatches, violations int64
	firstErr                        error
}

// newLedger sizes the ledger for about n operations, so its storage is
// allocated once and peak memory does not depend on append growth.
func newLedger(seed uint64, every, n int) *ledger {
	return &ledger{sampler: sim.NewRand(seed ^ 0x5A3B1E0C0FFEE), every: every,
		states: make([]opState, 0, n), armed: make([]bool, 0, n)}
}

// add registers an attempted operation and returns its id.
func (l *ledger) add() int32 {
	l.states = append(l.states, pending)
	l.armed = append(l.armed, false)
	return int32(len(l.states) - 1)
}

// violate records a conservation or verification failure.
func (l *ledger) violate(format string, args ...any) {
	l.violations++
	if l.firstErr == nil {
		l.firstErr = fmt.Errorf(format, args...)
	}
}

// end closes operation id with state st; ending an operation twice is a
// conservation violation.
func (l *ledger) end(id int32, st opState) {
	if l.states[id] != pending {
		l.violate("op %d ended twice (%d then %d)", id, l.states[id], st)
		return
	}
	l.states[id] = st
}

// claim marks dst slot k as written by operation id, arming a byte check
// when the op is sampled and no earlier op is still in flight on the slot.
func (l *ledger) claim(id int32, dst *slots, k int) {
	if l.sampler.Intn(l.every) == 0 && dst.inflight[k] == 0 {
		copy(dst.bytes(k), poison)
		l.armed[id] = true
	}
	dst.inflight[k]++
	dst.owner[k] = id
}

// release undoes a claim for an op that ended without writing (shed or
// failed); its check, if armed, is dropped.
func (l *ledger) release(id int32, dst *slots, k int) {
	dst.inflight[k]--
	l.armed[id] = false
}

// landed releases dst slot k after op id completed and, when armed and no
// later op has claimed the slot, compares it with src slot j.
func (l *ledger) landed(id int32, dst *slots, k int, src *slots, j int) {
	dst.inflight[k]--
	if !l.armed[id] || dst.owner[k] != id {
		return
	}
	l.checked++
	if !bytes.Equal(dst.bytes(k), src.bytes(j)) {
		l.mismatches++
		if l.firstErr == nil {
			l.firstErr = fmt.Errorf("op %d: destination slot %d differs from source slot %d", id, k, j)
		}
	}
}

// tally counts the final states; any op still pending is a violation.
func (l *ledger) tally() (ok, shed, failed int64) {
	for id, st := range l.states {
		switch st {
		case opOK:
			ok++
		case opShed:
			shed++
		case opFailed:
			failed++
		default:
			l.violate("op %d never resolved", id)
		}
	}
	return ok, shed, failed
}
