package mem

import (
	"fmt"
	"sort"
)

// Addr is a virtual address in a shared-virtual-memory address space.
type Addr uint64

// Page sizes supported by the address space (Fig 8 sweeps these).
const (
	Page4K int64 = 4 << 10
	Page2M int64 = 2 << 20
	Page1G int64 = 1 << 30
)

// AddressSpace is one process's shared virtual address space (one PASID).
// Both CPU cores and the DSA device dereference the same addresses, which is
// the property SVM provides on real hardware (§3.2, F1). Buffers are backed
// by real byte slices so operations are functionally verifiable.
type AddressSpace struct {
	PASID   int
	regions []*Buffer // sorted by base address
	next    Addr
}

// NewAddressSpace creates an empty address space with the given PASID.
func NewAddressSpace(pasid int) *AddressSpace {
	return &AddressSpace{PASID: pasid, next: 0x10_0000_0000}
}

// Span is one range an operation accesses: N bytes at Addr, written when
// Write is set and read otherwise. The device and the core price an
// operation over the same spans.
type Span struct {
	Addr  Addr
	N     int64
	Write bool
}

// Buffer is a virtually contiguous allocation.
type Buffer struct {
	Base     Addr
	Size     int64
	Node     *Node // home NUMA node of the backing pages
	PageSize int64

	// CacheResident marks the buffer as warm in the LLC, used to model
	// source/destination placement in Fig 15. It affects timing only.
	CacheResident bool

	data    []byte
	present []bool // per page; false pages fault on device access
	as      *AddressSpace
}

// AllocOption customizes Alloc.
type AllocOption func(*allocCfg)

type allocCfg struct {
	pageSize int64
	node     *Node
	lazy     bool
}

// OnNode homes the buffer's pages on node n. The default is the address
// space's first-touched node, or nil (timing queries then panic, keeping
// purely functional tests independent of topology).
func OnNode(n *Node) AllocOption { return func(c *allocCfg) { c.node = n } }

// WithPageSize backs the buffer with the given page size (Page4K, Page2M,
// Page1G).
func WithPageSize(ps int64) AllocOption { return func(c *allocCfg) { c.pageSize = ps } }

// Lazy leaves the buffer's pages unmapped: the first device access faults
// (exercising block-on-fault or partial completion), while CPU access maps
// pages on touch.
func Lazy() AllocOption { return func(c *allocCfg) { c.lazy = true } }

// Alloc reserves size bytes of virtual address space and returns the buffer.
func (as *AddressSpace) Alloc(size int64, opts ...AllocOption) *Buffer {
	if size <= 0 {
		panic("mem: Alloc with non-positive size")
	}
	cfg := allocCfg{pageSize: Page4K}
	for _, o := range opts {
		o(&cfg)
	}
	base := align(as.next, Addr(cfg.pageSize))
	npages := (size + cfg.pageSize - 1) / cfg.pageSize
	b := &Buffer{
		Base:     base,
		Size:     size,
		Node:     cfg.node,
		PageSize: cfg.pageSize,
		data:     make([]byte, size),
		present:  make([]bool, npages),
		as:       as,
	}
	if !cfg.lazy {
		for i := range b.present {
			b.present[i] = true
		}
	}
	as.next = base + Addr(npages*cfg.pageSize)
	as.regions = append(as.regions, b)
	sort.Slice(as.regions, func(i, j int) bool { return as.regions[i].Base < as.regions[j].Base })
	return b
}

func align(a, to Addr) Addr {
	if to == 0 {
		return a
	}
	return (a + to - 1) / to * to
}

// NodeAt returns the home NUMA node of the buffer containing addr, or nil
// when addr is unmapped or the buffer was allocated without placement. It
// is the submission hot path's data-home lookup — called once or twice per
// descriptor — so it is allocation-free: a manual binary search instead of
// Lookup's error-wrapping path.
func (as *AddressSpace) NodeAt(addr Addr) *Node {
	lo, hi := 0, len(as.regions)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		r := as.regions[mid]
		if addr >= r.Base+Addr(r.Size) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(as.regions) || addr < as.regions[lo].Base {
		return nil
	}
	return as.regions[lo].Node
}

// Lookup resolves addr to its containing buffer and the offset within it.
func (as *AddressSpace) Lookup(addr Addr) (*Buffer, int64, error) {
	i := sort.Search(len(as.regions), func(i int) bool {
		r := as.regions[i]
		return addr < r.Base+Addr(r.Size)
	})
	if i == len(as.regions) || addr < as.regions[i].Base {
		return nil, 0, fmt.Errorf("mem: address %#x not mapped in PASID %d", addr, as.PASID)
	}
	return as.regions[i], int64(addr - as.regions[i].Base), nil
}

// Bytes exposes the buffer's backing storage. Mutating it mutates simulated
// memory directly (useful for initializing workloads).
func (b *Buffer) Bytes() []byte { return b.data }

// Addr returns the virtual address of byte offset off within the buffer.
func (b *Buffer) Addr(off int64) Addr {
	if off < 0 || off > b.Size {
		panic(fmt.Sprintf("mem: offset %d outside buffer of %d bytes", off, b.Size))
	}
	return b.Base + Addr(off)
}

// Slice returns the backing bytes in [off, off+n).
func (b *Buffer) Slice(off, n int64) []byte { return b.data[off : off+n] }

// PresentAt reports whether the page containing buffer offset off is mapped.
func (b *Buffer) PresentAt(off int64) bool { return b.present[off/b.PageSize] }

// TouchAll maps every page of the buffer (resolving any pending faults).
func (b *Buffer) TouchAll() {
	for i := range b.present {
		b.present[i] = true
	}
}

// PageFaultError reports a device access to an unmapped page. The faulting
// address lets the OS model resolve exactly that page.
type PageFaultError struct {
	Addr  Addr
	PASID int
}

// Error implements error.
func (e *PageFaultError) Error() string {
	return fmt.Sprintf("mem: page fault at %#x (PASID %d)", e.Addr, e.PASID)
}

// CheckMapped verifies that every page backing [addr, addr+n) is present,
// returning a PageFaultError for the first unmapped page. Device reads and
// writes call this before moving data.
func (as *AddressSpace) CheckMapped(addr Addr, n int64) error {
	if n == 0 {
		return nil
	}
	b, off, err := as.Lookup(addr)
	if err != nil {
		return err
	}
	if off+n > b.Size {
		return fmt.Errorf("mem: access [%#x,+%d) overruns buffer end", addr, n)
	}
	for p := off / b.PageSize; p <= (off+n-1)/b.PageSize; p++ {
		if !b.present[p] {
			return &PageFaultError{Addr: b.Base + Addr(p*b.PageSize), PASID: as.PASID}
		}
	}
	return nil
}

// ResolveFault maps the page containing addr, as the OS page-fault handler
// would.
func (as *AddressSpace) ResolveFault(addr Addr) error {
	b, off, err := as.Lookup(addr)
	if err != nil {
		return err
	}
	b.present[off/b.PageSize] = true
	return nil
}

// Read copies n bytes at addr into p (functional data path). It does not
// check page presence: callers model faults via CheckMapped first.
func (as *AddressSpace) Read(addr Addr, p []byte) error {
	b, off, err := as.Lookup(addr)
	if err != nil {
		return err
	}
	if off+int64(len(p)) > b.Size {
		return fmt.Errorf("mem: read [%#x,+%d) overruns buffer end", addr, len(p))
	}
	copy(p, b.data[off:])
	return nil
}

// Write copies p into memory at addr.
func (as *AddressSpace) Write(addr Addr, p []byte) error {
	b, off, err := as.Lookup(addr)
	if err != nil {
		return err
	}
	if off+int64(len(p)) > b.Size {
		return fmt.Errorf("mem: write [%#x,+%d) overruns buffer end", addr, len(p))
	}
	copy(b.data[off:], p)
	return nil
}

// View returns a zero-copy window onto the n bytes at addr, erroring if the
// range spans buffers or overruns. Device operations use View to avoid
// double-copying payloads.
func (as *AddressSpace) View(addr Addr, n int64) ([]byte, error) {
	b, off, err := as.Lookup(addr)
	if err != nil {
		return nil, err
	}
	if off+n > b.Size {
		return nil, fmt.Errorf("mem: view [%#x,+%d) overruns buffer end", addr, n)
	}
	return b.data[off : off+n], nil
}
