package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is what the per-layer shares need from a runtime/pprof CPU
// profile: every sample's stack as function names, innermost first
// (inlined calls included), and its sample count.
type cpuProfile struct {
	stacks [][]string
	counts []int64
}

// share returns, among the samples with a frame matching within, the
// fraction that also satisfy in (given the stack, innermost first), and
// how many samples matched within.
func (p *cpuProfile) share(within func(string) bool, in func([]string) bool) (float64, int64) {
	var all, hit int64
	for i, st := range p.stacks {
		if !hasFrame(st, within) {
			continue
		}
		all += p.counts[i]
		if in(st) {
			hit += p.counts[i]
		}
	}
	if all == 0 {
		return 0, 0
	}
	return float64(hit) / float64(all), all
}

func hasFrame(stack []string, match func(string) bool) bool {
	for _, f := range stack {
		if match(f) {
			return true
		}
	}
	return false
}

// innermostRepo returns the innermost frame of the repository's own
// packages (module repro), or "" if there is none.
func innermostRepo(stack []string) string {
	for _, f := range stack {
		if strings.HasPrefix(f, "repro/") {
			return f
		}
	}
	return ""
}

// parseCPUProfile decodes the gzipped profile.proto that
// pprof.StartCPUProfile writes. It reads only samples, locations,
// functions and the string table, which is all the format needs to name
// a stack.
func parseCPUProfile(r io.Reader) (*cpuProfile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location ID -> function IDs, innermost first
		fnName  = map[uint64]uint64{}   // function ID -> string index
		strs    []string
	)
	err = fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.vals = appendVarints(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, int64(s.vals[0]))
	}
	return p, nil
}

var errProto = errors.New("malformed protobuf")

// fields calls fn for each top-level field of a protobuf message: with
// the value of a varint field, or the bytes of a length-delimited one.
// Fixed-width fields are skipped; the profile format has none that
// matter here.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value, or
// a packed run when the field came length-delimited.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
