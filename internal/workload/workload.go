// Package workload re-implements the paper's seven out-of-core parallel
// applications (Table 2) as deterministic, execution-driven reference
// generators: real loop nests over the real array shapes and input sizes,
// emitting page-granularity memory operations, compute cycles, barriers
// and locks through the machine.Ctx API, partitioned over the machine's
// processors.
//
// The paper ran MIPS binaries under MINT; what its evaluation measures —
// page access order, sharing, dirtiness, temporal clustering of swap-outs
// — is a function of the algorithms' loop structure, which is reproduced
// here directly (see DESIGN.md, "Substitutions").
//
// All applications mmap their data (virtual-memory-based I/O): arrays are
// laid out in one shared virtual address space starting at page 0, which
// the parallel file system stripes over the disks in 32-page groups.
package workload

import (
	"fmt"
	"sort"

	"nwcache/internal/machine"
)

// PageID is a virtual page number.
type PageID = machine.PageID

// PageSize is the virtual-memory page size in bytes (Table 1).
const PageSize = 4096

// SubSize is the sub-page cost-model granularity in bytes.
const SubSize = PageSize / 4

// LineSize is the cache-line granularity in bytes.
const LineSize = machine.LineSize

// Space is a bump allocator for the shared virtual address space.
type Space struct{ next PageID }

// Arr is a contiguous array of bytes in virtual memory, page-aligned.
type Arr struct {
	Name  string
	Base  PageID
	Bytes int64
}

// Alloc reserves a page-aligned region of the given size.
func (s *Space) Alloc(name string, bytes int64) Arr {
	if bytes <= 0 {
		panic(fmt.Sprintf("workload: Alloc(%q, %d)", name, bytes))
	}
	a := Arr{Name: name, Base: s.next, Bytes: bytes}
	s.next += (bytes + PageSize - 1) / PageSize
	return a
}

// Pages returns the total pages allocated so far.
func (s *Space) Pages() int64 { return int64(s.next) }

// Pages returns the page span of the array.
func (a Arr) Pages() int64 { return (a.Bytes + PageSize - 1) / PageSize }

// touchRange drives ctx.Touch for every sub-block overlapping
// [off, off+n) bytes of a.
func touchRange(ctx *machine.Ctx, a Arr, off, n int64, write bool) {
	if n <= 0 {
		return
	}
	if off < 0 || off+n > a.Bytes {
		panic(fmt.Sprintf("workload: %s[%d..%d) out of %d bytes", a.Name, off, off+n, a.Bytes))
	}
	end := off + n
	for off < end {
		subStart := off - off%SubSize
		subEnd := subStart + SubSize
		if subEnd > end {
			subEnd = end
		}
		chunk := subEnd - off
		lines := int((chunk + LineSize - 1) / LineSize)
		page := a.Base + off/PageSize
		sub := int(off % PageSize / SubSize)
		ctx.Touch(page, sub, lines, write)
		off = subEnd
	}
}

// Read touches [off, off+n) bytes of a for reading.
func Read(ctx *machine.Ctx, a Arr, off, n int64) { touchRange(ctx, a, off, n, false) }

// Write touches [off, off+n) bytes of a for writing.
func Write(ctx *machine.Ctx, a Arr, off, n int64) { touchRange(ctx, a, off, n, true) }

// blockRange partitions [0, n) into nparts blocks and returns block p's
// half-open range.
func blockRange(n, nparts, p int) (lo, hi int) {
	base := n / nparts
	rem := n % nparts
	lo = p*base + min(p, rem)
	hi = lo + base
	if p < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// scaleDim scales an integer dimension by the configured workload scale,
// clamping to a floor so tiny test configurations stay well-formed.
func scaleDim(dim int, scale float64, floor int) int {
	v := int(float64(dim) * scale)
	if v < floor {
		v = floor
	}
	return v
}

// Registry lists the applications of Table 2 by name.
func Registry(scale float64, seed int64) map[string]machine.Program {
	return map[string]machine.Program{
		"em3d":  NewEm3d(scale, seed),
		"fft":   NewFFT(scale),
		"gauss": NewGauss(scale),
		"lu":    NewLU(scale),
		"mg":    NewMG(scale),
		"radix": NewRadix(scale, seed),
		"sor":   NewSOR(scale),
	}
}

// Names returns the registry keys in deterministic (paper) order.
func Names() []string {
	names := []string{"em3d", "fft", "gauss", "lu", "mg", "radix", "sor"}
	sort.Strings(names)
	return names
}
