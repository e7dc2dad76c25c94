// The strict one-pass decoder of /v1/map/matrix bodies (see parse.go).

package mapd

import (
	"bytes"
	"strconv"

	"repro/internal/commmatrix"
)

// decodeStrict fills r exactly as encoding/json would when body lies in
// the strict subset, and reports false on anything else.
func (r *MatrixMapRequest) decodeStrict(body []byte) bool {
	d := &scanner{b: body}
	ok := d.object([]string{"hierarchy", "matrix", "refine", "seed", "max_rounds"}, func(field int) bool {
		switch field {
		case 0:
			s, ok := d.str()
			r.Hierarchy = string(s)
			return ok
		case 1:
			return d.object([]string{"ranks", "edges"}, func(field int) bool {
				if field == 0 {
					return setInt(d, &r.Matrix.Ranks)
				}
				return d.edges(&r.Matrix.Edges)
			})
		case 2:
			return d.bool(&r.Refine)
		case 3:
			return setInt(d, &r.Seed)
		}
		return setInt(d, &r.MaxRounds)
	})
	d.ws()
	return ok && d.i == len(d.b)
}

// scanner walks a body; every method skips leading whitespace, consumes
// one token or value and reports whether it was in the subset.
type scanner struct {
	b []byte
	i int
}

func (d *scanner) ws() {
	for d.i < len(d.b) && d.b[d.i] <= ' ' && (d.b[d.i] == ' ' || d.b[d.i] == '\t' || d.b[d.i] == '\n' || d.b[d.i] == '\r') {
		d.i++
	}
}

func (d *scanner) lit(c byte) bool {
	d.ws()
	return d.next(c)
}

// next consumes c if it is the next byte, whitespace included.
func (d *scanner) next(c byte) bool {
	ok := d.i < len(d.b) && d.b[d.i] == c
	if ok {
		d.i++
	}
	return ok
}

// object consumes an object whose keys are all in fields, none twice,
// calling value with the key's index to consume each value.
func (d *scanner) object(fields []string, value func(field int) bool) bool {
	if !d.lit('{') {
		return false
	}
	if d.lit('}') {
		return true
	}
	for seen := 0; ; {
		key, ok := d.str()
		f := 0
		for f < len(fields) && fields[f] != string(key) {
			f++
		}
		if !ok || f == len(fields) || seen&(1<<f) != 0 || !d.lit(':') || !value(f) {
			return false
		}
		if seen |= 1 << f; !d.lit(',') {
			return d.lit('}')
		}
	}
}

// edges consumes the edge array into a slice sized by the '{' left in the
// body, an upper bound on its length; "[]" is an empty, non-nil slice.
func (d *scanner) edges(p *[]commmatrix.Edge) bool {
	if !d.lit('[') {
		return false
	}
	if *p = make([]commmatrix.Edge, 0, bytes.Count(d.b[d.i:], []byte{'{'})); d.lit(']') {
		return true
	}
	for {
		var e commmatrix.Edge
		if !d.object([]string{"a", "b", "bytes"}, func(field int) bool {
			switch field {
			case 0:
				return setInt(d, &e.A)
			case 1:
				return setInt(d, &e.B)
			}
			return d.float(&e.Bytes)
		}) {
			return false
		}
		if *p = append(*p, e); !d.lit(',') {
			return d.lit(']')
		}
	}
}

// str consumes a string of printable ASCII without escapes.
func (d *scanner) str() ([]byte, bool) {
	if !d.lit('"') {
		return nil, false
	}
	for i := d.i; i < len(d.b) && d.b[i] >= 0x20 && d.b[i] < 0x7f && d.b[i] != '\\'; i++ {
		if d.b[i] == '"' {
			s := d.b[d.i:i]
			d.i = i + 1
			return s, true
		}
	}
	return nil, false
}

func (d *scanner) digits() int {
	start := d.i
	for d.i < len(d.b) && d.b[d.i]-'0' <= 9 {
		d.i++
	}
	return d.i - start
}

// number consumes a JSON number: its literal (nil if it is not one), and
// whether it is an integer of at most 18 digits other than "-0", which
// cannot overflow, with its value.
func (d *scanner) number() (lit []byte, v int64, isInt bool) {
	d.ws()
	start := d.i
	neg := d.next('-')
	i := d.i
	for ; i < len(d.b) && d.b[i]-'0' <= 9; i++ {
		v = v*10 + int64(d.b[i]-'0')
	}
	if n := i - d.i; n == 0 || n > 1 && d.b[d.i] == '0' {
		return nil, 0, false
	}
	isInt, d.i = i-d.i <= 18 && !(neg && v == 0), i
	if neg {
		v = -v
	}
	frac := d.next('.')
	if frac && d.digits() == 0 {
		return nil, 0, false
	}
	exp := d.next('e') || d.next('E')
	if exp {
		_ = d.next('+') || d.next('-')
		if d.digits() == 0 {
			return nil, 0, false
		}
	}
	return d.b[start:d.i], v, isInt && !frac && !exp
}

func setInt[T int | int64](d *scanner, p *T) bool {
	_, v, ok := d.number()
	*p = T(v)
	return ok && int64(*p) == v
}

// float parses a number as encoding/json does; an integer below 2^53
// converts exactly without strconv.
func (d *scanner) float(p *float64) bool {
	lit, v, isInt := d.number()
	if isInt && -1<<53 < v && v < 1<<53 {
		*p = float64(v)
		return true
	}
	var err error
	*p, err = strconv.ParseFloat(string(lit), 64) // fails on nil
	return err == nil
}

func (d *scanner) bool(p **bool) bool {
	d.ws()
	v := bytes.HasPrefix(d.b[d.i:], []byte("true"))
	if w := strconv.FormatBool(v); bytes.HasPrefix(d.b[d.i:], []byte(w)) {
		d.i, *p = d.i+len(w), &v
		return true
	}
	return false
}
