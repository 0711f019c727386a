package main

// CPU-profile attribution with the standard library only: a minimal
// decoder for the gzipped profile.proto that runtime/pprof writes, and
// the rule that charges each sample to one module.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuModules are the attribution buckets, in report order: the repo's
// modules, then the stdlib layers a sample may sit in with no repo frame
// on its stack, then the Go runtime as the rest.
var cpuModules = []string{
	"tcl", "turbine", "adlb", "mpi", "lang", "pylite", "rlite", "jlite",
	"swig", "nativelib", "chunk", "blob", "memo", "serve", "core", "stc",
	"net_http", "encoding_json", "go_runtime",
}

// repoModule maps a function name to the repo module that owns it, or
// "" for code outside the listed modules. The Swift front end
// (internal/swift) is part of the compiler layer.
func repoModule(fn string) string {
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	switch rest {
	case "swift":
		return "stc"
	case "tcl", "turbine", "adlb", "mpi", "lang", "pylite", "rlite", "jlite",
		"swig", "nativelib", "chunk", "blob", "memo", "serve", "core", "stc":
		return rest
	}
	return ""
}

// attribute charges one stack (innermost frame first) to a module: the
// innermost frame from a listed repo module, so that allocation and
// runtime work are charged to the module that caused them; failing
// that, the innermost net/http or encoding/json frame; failing that, the
// Go runtime.
func attribute(stack []string) string {
	for _, fn := range stack {
		if m := repoModule(fn); m != "" {
			return m
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "net/http."):
			return "net_http"
		case strings.HasPrefix(fn, "encoding/json."):
			return "encoding_json"
		}
	}
	return "go_runtime"
}

// cpuFractions decodes a gzipped CPU profile and returns each module's
// share of the samples.
func cpuFractions(gz []byte) (map[string]float64, error) {
	stacks, weights, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	frac := map[string]float64{}
	for _, m := range cpuModules {
		frac[m] = 0
	}
	var total float64
	for i, st := range stacks {
		frac[attribute(st)] += float64(weights[i])
		total += float64(weights[i])
	}
	if total > 0 {
		for m := range frac {
			frac[m] /= total
		}
	}
	return frac, nil
}

// decodeProfile returns every sample's stack (function names, innermost
// first, inlined frames expanded) and its first value (the sample count
// for a CPU profile).
func decodeProfile(gz []byte) (stacks [][]string, weights []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	type sample struct {
		locs []uint64
		val  int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = fields(raw, func(f int, wt int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var s sample
			var vals []int64
			err := fields(b, func(f int, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					return varints(wt, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(wt, v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if len(vals) > 0 {
				s.val = vals[0]
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(f int, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(f int, wt int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(f int, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, s := range samples {
		var st []string
		for _, l := range s.locs {
			for _, fn := range locFns[l] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					st = append(st, strs[i])
				}
			}
		}
		stacks = append(stacks, st)
		weights = append(weights, s.val)
	}
	return stacks, weights, nil
}

// fields walks one protobuf message, calling fn with each field number,
// wire type, and its varint value or length-delimited bytes.
func fields(b []byte, fn func(field, wiretype int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wt == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("profile: short fixed field")
			}
			b = b[size:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(field, wt, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated integer field in either encoding: one
// varint per field (wire type 0) or packed (wire type 2).
func varints(wt int, v uint64, b []byte, add func(uint64)) error {
	if wt == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
