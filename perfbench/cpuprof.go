package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// CPU-profile attribution. A traced run records a runtime/pprof CPU
// profile; each sample is charged to the innermost frame of its stack that
// belongs to the repository (or to the syscall layer), and the frame's
// package and file name a layer. A stack with no such frame (GC workers,
// the scheduler, netpoll) is charged to the Go runtime.

// cpuLayers lists every layer a sample can be charged to, in report order.
var cpuLayers = []string{
	"server", "wire", "client", "service", "ledger", "runner", "core", "tree", "bitset",
	"runtime_substrate", "api", "other", "durable", "repl", "syscall", "bench", "runtime",
}

// layerOfFrame maps one frame to its layer, or "" when the frame belongs
// to none (standard library, runtime): the walk then continues outward.
func layerOfFrame(fn, file string) string {
	pkg := funcPackage(fn)
	switch pkg {
	case "main", "ballsintoleaves/perfbench": // the binary, its test binary
		return "bench"
	case "syscall", "internal/poll", "internal/runtime/syscall":
		return "syscall"
	case "ballsintoleaves":
		return "api"
	case "ballsintoleaves/internal/namesvc":
		switch path.Base(file) {
		case "server.go":
			return "server"
		case "wire.go":
			return "wire"
		case "client.go", "session.go":
			return "client"
		case "ledger.go":
			return "ledger"
		case "runner.go":
			return "runner"
		case "durability.go":
			return "durable"
		default:
			return "service"
		}
	case "ballsintoleaves/internal/wire":
		return "wire"
	case "ballsintoleaves/internal/namesvc/durable":
		return "durable"
	case "ballsintoleaves/internal/namesvc/repl", "ballsintoleaves/internal/transport":
		return "repl"
	case "ballsintoleaves/internal/core":
		return "core"
	case "ballsintoleaves/internal/tree":
		return "tree"
	case "ballsintoleaves/internal/bitset":
		return "bitset"
	case "ballsintoleaves/internal/runtime":
		return "runtime_substrate"
	}
	if strings.HasPrefix(pkg, "ballsintoleaves/") {
		return "other"
	}
	return ""
}

// funcPackage extracts the import path from a symbol name such as
// "ballsintoleaves/internal/namesvc.(*Server).handle".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuShares parses a gzipped pprof CPU profile and returns each layer's
// share of the samples, plus the sample count.
func cpuShares(profile []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	funcLayer := make(map[uint64]string, len(p.funcs))
	for id, f := range p.funcs {
		funcLayer[id] = layerOfFrame(p.str(f.name), p.str(f.file))
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		layer := "runtime"
	walk:
		for _, loc := range s.locs {
			for _, fid := range p.locs[loc] {
				if l := funcLayer[fid]; l != "" {
					layer = l
					break walk
				}
			}
		}
		counts[layer] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, int(total), nil
}

// profile is the subset of profile.proto attribution needs.
type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]profFunc
	strs    []string
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

type profFunc struct{ name, file int64 }

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// parseProfile decodes the protobuf message fields attribution uses:
// Profile.sample (2), .location (4), .function (5), .string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]profFunc)}
	err := protoFields(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s profSample
			var values []uint64
			err := protoFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					return protoUints(w, v, d, &s.locs)
				case 2:
					return protoUints(w, v, d, &values)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := protoFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locs[id] = fns
		case 5:
			var id uint64
			var fn profFunc
			err := protoFields(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = fn
		case 6:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

var errProto = errors.New("malformed protobuf")

// protoFields walks one protobuf message, calling fn for each field with
// its number, wire type, and varint value or length-delimited payload.
func protoFields(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
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
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// protoUints appends a repeated integer field in either encoding: one
// varint per field occurrence, or a packed run.
func protoUints(wire int, v uint64, data []byte, dst *[]uint64) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
