package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"sort"
	"strconv"
	"sync"
)

// Fingerprint content-addresses a set of Go values: it returns the SHA-256
// (hex) of a canonical rendering in which every struct is written as its
// exported fields sorted by *name*. Two configuration structs that carry the
// same field names and values therefore hash identically even if the fields
// are declared (or literally written) in a different order — the hash is a
// function of the configuration's content, never of its layout. This is the
// keying scheme of the artifact cache: equal fingerprints ⇒ the same
// computation ⇒ the same artifact.
//
// Supported kinds are the ones configuration structs are made of: booleans,
// integers, floats, complex numbers, strings, structs, pointers, interfaces,
// maps (keys sorted by rendered form), slices and arrays. Unexported fields
// are skipped (they cannot influence an analysis run from outside the
// package that owns them). Funcs and channels render as their kind name
// only; configurations must not smuggle behaviour through them.
func Fingerprint(vals ...any) string {
	sum := fingerprint(vals...)
	return hex.EncodeToString(sum[:])
}

// fingerprint renders vals into one buffer and hashes it. A configuration
// that fits the stack buffer renders without allocating; only maps (rare in
// configurations) allocate, to sort their entries.
func fingerprint(vals ...any) [sha256.Size]byte {
	var stack [1024]byte
	b := stack[:0]
	for _, v := range vals {
		b = appendCanonical(b, reflect.ValueOf(v))
		b = append(b, 0)
	}
	return sha256.Sum256(b)
}

// appendCanonical renders v deterministically onto b. The rendering is
// prefix-free enough for hashing purposes: every composite opens and closes
// with a dedicated rune and every element is terminated.
func appendCanonical(b []byte, v reflect.Value) []byte {
	if !v.IsValid() {
		return append(b, "nil"...)
	}
	switch v.Kind() {
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(b, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return strconv.AppendUint(b, v.Uint(), 10)
	case reflect.Float32, reflect.Float64:
		// 'x' (hex float) is exact: distinct values never collide and equal
		// values render identically, including negative zero and infinities.
		return strconv.AppendFloat(b, v.Float(), 'x', -1, 64)
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		b = strconv.AppendFloat(b, real(c), 'x', -1, 64)
		b = append(b, "+i"...)
		return strconv.AppendFloat(b, imag(c), 'x', -1, 64)
	case reflect.String:
		// Length-prefixed so "ab"+"c" ≠ "a"+"bc".
		b = strconv.AppendInt(b, int64(v.Len()), 10)
		b = append(b, ':')
		return append(b, v.String()...)
	case reflect.Struct:
		b = append(b, '{')
		for _, f := range sortedFields(v.Type()) {
			b = append(b, f.name...)
			b = append(b, '=')
			b = appendCanonical(b, v.Field(f.index))
			b = append(b, ';')
		}
		return append(b, '}')
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return append(b, "nil"...)
		}
		return appendCanonical(b, v.Elem())
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			return append(b, "nil"...)
		}
		b = append(b, '[')
		for i := 0; i < v.Len(); i++ {
			b = appendCanonical(b, v.Index(i))
			b = append(b, ',')
		}
		return append(b, ']')
	case reflect.Map:
		if v.IsNil() {
			return append(b, "nil"...)
		}
		// Render the entries after b in iteration order, then write them
		// back sorted by rendered key from a copy of that block.
		base := len(b)
		type span struct{ k0, k1, v1 int } // key [k0,k1), value [k1,v1) of the block
		spans := make([]span, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			k0 := len(b) - base
			b = appendCanonical(b, it.Key())
			k1 := len(b) - base
			b = appendCanonical(b, it.Value())
			spans = append(spans, span{k0, k1, len(b) - base})
		}
		block := append([]byte(nil), b[base:]...)
		sort.Slice(spans, func(i, j int) bool {
			return string(block[spans[i].k0:spans[i].k1]) < string(block[spans[j].k0:spans[j].k1])
		})
		b = append(b[:base], "map{"...)
		for _, sp := range spans {
			b = append(b, block[sp.k0:sp.k1]...)
			b = append(b, "=>"...)
			b = append(b, block[sp.k1:sp.v1]...)
			b = append(b, ';')
		}
		return append(b, '}')
	default:
		// Funcs, channels, unsafe pointers: content-addressing is impossible;
		// render the kind so the hash is at least deterministic.
		b = append(b, '<')
		b = append(b, v.Kind().String()...)
		return append(b, '>')
	}
}

// field is one exported struct field in canonical (name) order.
type field struct {
	name  string
	index int
}

// fieldCache maps a struct type to its exported fields sorted by name, so a
// type's fields are listed and sorted once per process, not once per value.
var fieldCache sync.Map // reflect.Type → []field

func sortedFields(t reflect.Type) []field {
	if fs, ok := fieldCache.Load(t); ok {
		return fs.([]field)
	}
	fs := make([]field, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() {
			fs = append(fs, field{f.Name, i})
		}
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].name < fs[j].name })
	fieldCache.Store(t, fs)
	return fs
}
