package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modules are the repository's internal packages, one CPU-share bucket
// each (nested packages such as exp/pool fold into their parent). A
// package added later lands in "other" until it is listed here.
var modules = []string{
	"coherence", "core", "dense", "disk", "exp", "fault", "guard", "machine",
	"mesh", "obs", "optical", "param", "pfs", "report", "serve", "sim",
	"stats", "sweep", "tlb", "trace", "vm", "workload",
}

// shareBuckets lists every bucket of the flat CPU split; their shares
// sum to 1.
func shareBuckets() []string {
	return append(append([]string(nil), modules...), "runtime", "syscall", "stdlib", "other")
}

// bucketOf maps a profiled function name ("nwcache/internal/sim.(*Engine).Run",
// "runtime.mallocgc", "crypto/sha256.block") to its share bucket.
func bucketOf(fn string) string {
	pkg, _, _ := strings.Cut(fn, "[") // drop type arguments
	if slash := strings.LastIndexByte(pkg, '/'); slash >= 0 {
		if dot := strings.IndexByte(pkg[slash:], '.'); dot >= 0 {
			pkg = pkg[:slash+dot]
		}
	} else if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
		pkg = pkg[:dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "nwcache/internal/"); ok {
		mod, _, _ := strings.Cut(rest, "/")
		for _, m := range modules {
			if m == mod {
				return m
			}
		}
		return "other"
	}
	switch {
	case pkg == "syscall" || pkg == "internal/runtime/syscall" || strings.HasPrefix(pkg, "internal/syscall/"):
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case !strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
		if pkg == "main" {
			return "other"
		}
		return "stdlib"
	}
	return "other"
}

// flatShares decodes a runtime/pprof CPU profile and returns each
// bucket's share of the samples, attributing every sample to its leaf
// frame (the innermost inlined function).
func flatShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		fn := "?"
		if fid, ok := p.locLeaf[s.locs[0]]; ok {
			if name, ok := p.funcName[fid]; ok && name < uint64(len(p.strings)) {
				fn = p.strings[name]
			}
		}
		counts[bucketOf(fn)] += s.values[0]
		total += s.values[0]
	}
	shares := map[string]float64{}
	for _, b := range shareBuckets() {
		if total > 0 {
			shares[b] = float64(counts[b]) / float64(total)
		} else {
			shares[b] = 0
		}
	}
	return shares, nil
}

// profile holds the few profile.proto fields the flat split needs.
type profile struct {
	samples  []sample
	locLeaf  map[uint64]uint64 // location id -> function id of its first (innermost) line
	funcName map[uint64]uint64 // function id -> string table index
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLeaf: map[uint64]uint64{}, funcName: map[uint64]uint64{}}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case fProfileSample:
			var s sample
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case fSampleLocation:
					return appendPacked(&s.locs, v, sub)
				case fSampleValue:
					var vs []uint64
					if err := appendPacked(&vs, v, sub); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id, leaf uint64
			haveLeaf := false
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					if haveLeaf {
						return nil
					}
					haveLeaf = true
					return eachField(sub, func(num int, v uint64, _ []byte) error {
						if num == fLineFunction {
							leaf = v
						}
						return nil
					})
				}
				return nil
			})
			if haveLeaf {
				p.locLeaf[id] = leaf
			}
			return err
		case fProfileFunction:
			var id, name uint64
			err := eachField(sub, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = v
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case fProfileString:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

// appendPacked appends a repeated varint field that may arrive packed
// (sub holds the varints) or as a single element (v).
func appendPacked(dst *[]uint64, v uint64, sub []byte) error {
	if sub == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errBadProfile
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}

var errBadProfile = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or (length-delimited fields) its
// bytes; sub is nil for varint fields. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errBadProfile
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errBadProfile
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProfile
			}
			sub := b[n : n+int(l)] // non-nil even when empty: marks the field length-delimited
			b = b[n+int(l):]
			if err := fn(num, 0, sub); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errBadProfile
			}
			b = b[4:]
		default:
			return errBadProfile
		}
	}
	return nil
}
