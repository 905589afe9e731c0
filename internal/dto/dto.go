// Package dto models the DSA Transparent Offload library the paper's
// authors built (§5, Appendix B): libc-style entry points — Memcpy,
// Memmove, Memset, Memcmp — that intercept calls and transparently replace
// them with synchronous DSA operations when the size crosses a threshold,
// falling back to the CPU otherwise (or when the hardware path fails, e.g.
// on a page fault, mirroring CacheBench's "redo on fault" policy).
package dto

import (
	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/offload"
	"dsasim/internal/sim"
)

// DefaultMinSize is the default offload threshold: the paper offloads
// memcpy() calls of 8 KB and larger in the CacheLib study ("DSA improves
// throughput ... generally at or above 8KB", Appendix B).
const DefaultMinSize int64 = 8 << 10

// Stats counts interposer activity.
type Stats struct {
	Calls         int64 // intercepted calls
	Offloaded     int64 // executed on DSA
	SmallFallback int64 // below-threshold calls run on the CPU
	ErrorFallback int64 // hardware errors redone on the CPU
	BytesOffload  int64
	BytesCPU      int64
}

// Interposer intercepts memory-routine calls for one thread, offloading
// through an offload.Tenant.
type Interposer struct {
	T       *offload.Tenant
	MinSize int64

	stats Stats
}

// New wraps tenant t with the default threshold.
func New(t *offload.Tenant) *Interposer {
	return &Interposer{T: t, MinSize: DefaultMinSize}
}

// Stats returns a copy of the interposer counters.
func (i *Interposer) Stats() Stats { return i.stats }

// hw waits out one forced-hardware operation synchronously.
func (i *Interposer) hw(p *sim.Proc, f *offload.Future, err error) (offload.Result, error) {
	if err != nil {
		return offload.Result{}, err
	}
	return f.Wait(p, i.T.Policy().Wait)
}

// cpuCopy runs the software path after a hardware error.
func (i *Interposer) cpuCopy(p *sim.Proc, dst, src mem.Addr, n int64) error {
	dur, err := i.T.Core.Memcpy(dst, src, n)
	if err != nil {
		return err
	}
	p.Sleep(dur)
	i.stats.BytesCPU += n
	return nil
}

// cpuCompare runs a compare on the CPU (memcmp has no core routine of its
// own: it runs the device's compare descriptor on the core).
func (i *Interposer) cpuCompare(p *sim.Proc, a, b mem.Addr, n int64) (equal bool, err error) {
	rec, dur := dsa.RunOnCore(i.T.Core, &dsa.Descriptor{Op: dsa.OpCompare, Src: a, Src2: b, Size: n})
	if rec.Status != dsa.StatusSuccess {
		return false, rec.Err
	}
	p.Sleep(dur)
	i.stats.BytesCPU += n
	return !rec.Mismatch, nil
}

// Memcpy copies n bytes, offloading synchronously when n ≥ MinSize.
func (i *Interposer) Memcpy(p *sim.Proc, dst, src mem.Addr, n int64) error {
	i.stats.Calls++
	if n < i.MinSize {
		i.stats.SmallFallback++
		return i.cpuCopy(p, dst, src, n)
	}
	f, err := i.T.Copy(p, dst, src, n, offload.On(offload.Hardware))
	if _, err := i.hw(p, f, err); err != nil {
		i.stats.ErrorFallback++
		return i.cpuCopy(p, dst, src, n)
	}
	i.stats.Offloaded++
	i.stats.BytesOffload += n
	return nil
}

// Memmove is Memcpy in this model (simulated buffers never alias in a way
// the device mishandles; the DSA Memory Move operation handles overlap).
func (i *Interposer) Memmove(p *sim.Proc, dst, src mem.Addr, n int64) error {
	return i.Memcpy(p, dst, src, n)
}

// Memset fills n bytes at dst with the byte value c.
func (i *Interposer) Memset(p *sim.Proc, dst mem.Addr, c byte, n int64) error {
	i.stats.Calls++
	pattern := uint64(0)
	for k := 0; k < 8; k++ {
		pattern = pattern<<8 | uint64(c)
	}
	if n < i.MinSize {
		i.stats.SmallFallback++
		dur, err := i.T.Core.Memset(dst, n, pattern)
		if err != nil {
			return err
		}
		p.Sleep(dur)
		i.stats.BytesCPU += n
		return nil
	}
	f, err := i.T.Fill(p, dst, n, pattern, offload.On(offload.Hardware))
	if _, err := i.hw(p, f, err); err != nil {
		i.stats.ErrorFallback++
		dur, err2 := i.T.Core.Memset(dst, n, pattern)
		if err2 != nil {
			return err2
		}
		p.Sleep(dur)
		i.stats.BytesCPU += n
		return nil
	}
	i.stats.Offloaded++
	i.stats.BytesOffload += n
	return nil
}

// Memcmp compares n bytes at a and b; equal reports whether they match.
func (i *Interposer) Memcmp(p *sim.Proc, a, b mem.Addr, n int64) (equal bool, err error) {
	i.stats.Calls++
	if n < i.MinSize {
		i.stats.SmallFallback++
		return i.cpuCompare(p, a, b, n)
	}
	f, ferr := i.T.Compare(p, a, b, n, offload.On(offload.Hardware))
	res, err := i.hw(p, f, ferr)
	if err != nil {
		i.stats.ErrorFallback++
		return i.cpuCompare(p, a, b, n)
	}
	i.stats.Offloaded++
	i.stats.BytesOffload += n
	return !res.Mismatch, nil
}
