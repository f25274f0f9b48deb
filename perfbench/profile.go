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

// foldProfile folds a pprof CPU profile (gzip-compressed protobuf, as
// runtime/pprof writes it) into self-time shares per layer, counting only
// samples carrying the label key=value. A sample's leaf frame decides its
// bucket: a frame in a layer package goes to that layer, a runtime frame
// to "runtime", a frame of the benchmark itself (its seam wrappers) to
// "other", and a frame anywhere else (helper packages, the standard
// library) to the nearest calling layer frame, or to "other" when there
// is none. It returns the shares and the number of samples folded.
func foldProfile(gz []byte, key, value string) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
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
	layers := map[string]bool{}
	for _, l := range profileLayers() {
		layers[l] = true
	}
	var keyIdx, valIdx int64 = -1, -1
	for i, s := range p.strings {
		if s == key {
			keyIdx = int64(i)
		}
		if s == value {
			valIdx = int64(i)
		}
	}
	byLayer := map[string]int64{}
	var total int64
	samples := 0
	for _, s := range p.samples {
		if !s.hasLabel(keyIdx, valIdx) || len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // CPU nanoseconds
		layer := "other"
	frames:
		for i, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				l := layerOf(p.strings[p.functions[fn]])
				if (i == 0 && l == "runtime") || l == "other" {
					layer = l
					break frames
				}
				if layers[l] && l != "runtime" {
					layer = l
					break frames
				}
			}
		}
		byLayer[layer] += v
		total += v
		samples++
	}
	shares := map[string]float64{}
	for _, l := range profileLayers() {
		if total > 0 {
			shares[l] = float64(byLayer[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, samples, nil
}

// layerOf maps a function name to its bucket: the package name for the
// module's internal packages, "runtime" for the Go runtime, "other" for the
// benchmark's own code, "" otherwise.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "other"
	}
	const prefix = "rtcadapt/internal/"
	if strings.HasPrefix(fn, prefix) {
		rest := fn[len(prefix):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal/") ||
		strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "gcWriteBarrier") {
		return "runtime"
	}
	return ""
}

// profile is the part of the pprof protobuf the folding needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, leaf first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type sample struct {
	locations []uint64
	values    []int64
	labels    [][2]int64 // key, str string indexes
}

func (s sample) hasLabel(key, value int64) bool {
	for _, l := range s.labels {
		if l[0] == key && l[1] == value {
			return true
		}
	}
	return false
}

// Field numbers of perftools.profiles.Profile and its messages.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocation = 1
	sampleValue    = 2
	sampleLabel    = 3

	labelKey = 1
	labelStr = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case profSample:
			var s sample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case sampleLocation:
					return appendVarints(&s.locations, w, v, d)
				case sampleValue:
					var vs []uint64
					if err := appendVarints(&vs, w, v, d); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				case sampleLabel:
					var l [2]int64
					err := eachField(d, func(f, _ int, v uint64, _ []byte) error {
						switch f {
						case labelKey:
							l[0] = int64(v)
						case labelStr:
							l[1] = int64(v)
						}
						return nil
					})
					if err != nil {
						return err
					}
					s.labels = append(s.labels, l)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, _ int, v uint64, d []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return eachField(d, func(f, _ int, v uint64, _ []byte) error {
						if f == lineFunction {
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
			p.locations[id] = fns
		case profFunction:
			var id uint64
			var name int64
			err := eachField(data, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case profStrings:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errors.New("function name index out of range")
		}
	}
	return p, nil
}

// appendVarints decodes a repeated varint field in either encoding: one
// value per field (wire type 0) or packed (wire type 2).
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message. For varint fields
// it passes the value; for length-delimited fields the bytes. Fixed-width
// fields are skipped.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated field")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, wire, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
