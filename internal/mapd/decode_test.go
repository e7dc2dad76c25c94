package mapd

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/commmatrix"
	"repro/internal/procmap"
)

// matrixBody renders a /v1/map/matrix body in the load generator's shape:
// hierarchy, seed, then the canonical sparse matrix.
func matrixBody(tb testing.TB, hierarchy string, seed int, m *commmatrix.Matrix) string {
	tb.Helper()
	sparse, err := json.Marshal(m.Sparse())
	if err != nil {
		tb.Fatal(err)
	}
	return fmt.Sprintf(`{"hierarchy":%q,"seed":%d,"matrix":%s}`, hierarchy, seed, sparse)
}

func haloBody(tb testing.TB, hierarchy string, rows, cols, seed int) string {
	tb.Helper()
	m, err := procmap.Halo(rows, cols, 1024)
	if err != nil {
		tb.Fatal(err)
	}
	return matrixBody(tb, hierarchy, seed, m)
}

// BenchmarkEndpointParse is the per-request body cost both serving tiers
// pay before the cache: decode, validate and key one request.
func BenchmarkEndpointParse(b *testing.B) {
	cases := []struct{ name, path, body string }{
		{"rank", "/v1/map", `{"hierarchy":"16,2,4,2,8","order":"3-1-0-4-2","rank":1234}`},
		{"advise", "/v1/advise", `{"machine":"hydra","nodes":16,"collective":"alltoall","comm_size":16}`},
		{"halo8x16", "/v1/map/matrix", haloBody(b, "4,2,2,8", 8, 16, 7)},
		{"halo16x32", "/v1/map/matrix", haloBody(b, "4,2,4,2,8", 16, 32, 7)},
	}
	for _, c := range cases {
		ep, _ := lookupEndpoint(c.path)
		body := []byte(c.body)
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q, err := ep.Parse(body)
				if err != nil {
					b.Fatal(err)
				}
				_ = q.Key()
			}
		})
	}
}

// matrixDeclines are bodies outside the strict decoder's subset, each with
// what encoding/json makes of it: the error, or the key of the request it
// decodes. Several decode without error, so the slow path really is the
// authority on them.
var matrixDeclines = []struct{ name, body, want string }{
	{"upper-case key", `{"hierarchy":"2,2","matrix":{"ranks":4,"edges":[{"A":1,"b":1,"bytes":1}]}}`, "mapd: bad request: commmatrix: edge 0 is a self-edge on rank 1"},
	{"duplicate key", `{"hierarchy":"2,2","hierarchy":"3,3","matrix":{"ranks":4,"edges":[]}}`, "mapd: bad request: matrix covers 4 ranks, hierarchy enumerates 9"},
	{"duplicate edges", `{"hierarchy":"2,2","matrix":{"ranks":4,"edges":[{"a":0,"b":1,"bytes":1}],"edges":[]}}`, "key mapmatrix|2,2|f0a0278e4372459cca6159cd5e71cfee638302a7b9ca9b05c34181ac0a65ac5d|s0|r0|ftrue"},
	{"null matrix", `{"hierarchy":"2,2","matrix":null}`, "mapd: bad request: commmatrix: non-positive rank count 0"},
	{"null refine", `{"hierarchy":"2,2","matrix":{"ranks":4,"edges":[]},"refine":null}`, "key mapmatrix|2,2|f0a0278e4372459cca6159cd5e71cfee638302a7b9ca9b05c34181ac0a65ac5d|s0|r0|ftrue"},
	{"negative zero", `{"hierarchy":"2,2","matrix":{"ranks":-0,"edges":[]}}`, "mapd: bad request: commmatrix: non-positive rank count 0"},
	{"exponent int", `{"hierarchy":"2,2","matrix":{"ranks":4e0,"edges":[]}}`, "mapd: bad request: invalid JSON: json: cannot unmarshal number 4e0 into Go struct field Sparse.matrix.ranks of type int"},
	{"plus sign", `{"hierarchy":"2,2","matrix":{"ranks":+4,"edges":[]}}`, "mapd: bad request: invalid JSON: invalid character '+' looking for beginning of value"},
	{"bare point", `{"hierarchy":"2,2","matrix":{"ranks":4,"edges":[{"a":0,"b":1,"bytes":1.}]}}`, "mapd: bad request: invalid JSON: invalid character '}' after decimal point in numeric literal"},
	{"leading zero", `{"hierarchy":"2,2","matrix":{"ranks":04,"edges":[]}}`, "mapd: bad request: invalid JSON: invalid character '4' after object key:value pair"},
	{"escaped key", `{"hier\u0061rchy":"2,2","matrix":{"ranks":9,"edges":[]}}`, "mapd: bad request: matrix covers 9 ranks, hierarchy enumerates 4"},
	{"non-ASCII hierarchy", `{"hierarchy":"2,2é","matrix":{"ranks":4,"edges":[]}}`, `mapd: bad request: topology: invalid level: arity "2é" in "2,2é": strconv.Atoi: parsing "2é": invalid syntax`},
	{"trailing brace", `{"hierarchy":"2,2","matrix":{"ranks":4,"edges":[]}}}`, "mapd: bad request: invalid JSON: trailing data after request object"},
	{"leading BOM", "\ufeff" + `{"hierarchy":"2,2","matrix":{"ranks":4,"edges":[]}}`, "mapd: bad request: invalid JSON: invalid character 'ï' looking for beginning of value"},
	{"19-digit int", `{"hierarchy":"2,2","matrix":{"ranks":1000000000000000000,"edges":[]}}`, "mapd: bad request: matrix covers 1000000000000000000 ranks, hierarchy enumerates 4"},
	{"int overflow", `{"hierarchy":"2,2","matrix":{"ranks":4,"edges":[]},"seed":9223372036854775808}`, "mapd: bad request: invalid JSON: json: cannot unmarshal number 9223372036854775808 into Go struct field MatrixMapRequest.seed of type int64"},
	{"float overflow", `{"hierarchy":"2,2","matrix":{"ranks":4,"edges":[{"a":0,"b":1,"bytes":1e999}]}}`, "mapd: bad request: invalid JSON: json: cannot unmarshal number 1e999 into Go struct field Edge.matrix.edges.bytes of type float64"},
	{"unknown field", `{"hierarchy":"2,2","matrix":{"ranks":4,"edges":[],"weights":[]}}`, `mapd: bad request: invalid JSON: json: unknown field "weights"`},
	{"string seed", `{"hierarchy":"2,2","matrix":{"ranks":4,"edges":[]},"seed":"1"}`, "mapd: bad request: invalid JSON: json: cannot unmarshal string into Go struct field MatrixMapRequest.seed of type int64"},
	{"empty body", ``, "mapd: bad request: invalid JSON: EOF"},
}

// TestMatrixDeclinesKeepErrors holds every body outside the strict subset
// to the answer encoding/json gave before the strict decoder existed.
func TestMatrixDeclinesKeepErrors(t *testing.T) {
	ep, _ := lookupEndpoint("/v1/map/matrix")
	for _, c := range matrixDeclines {
		if new(MatrixMapRequest).decodeStrict([]byte(c.body)) {
			t.Errorf("%s: strict decoder accepted %s", c.name, c.body)
		}
		if got := outcome(ep, c.body); got != c.want {
			t.Errorf("%s: Parse = %q, want %q", c.name, got, c.want)
		}
	}
}

// servedMatrixBodies are the matrix bodies the load generator sends, at
// full size when full, else as small bodies of the same shapes (the fuzzer
// stalls minimizing 30 KB inputs).
func servedMatrixBodies(tb testing.TB, full bool) []string {
	layers := func(side int) *commmatrix.Matrix {
		m, err := procmap.GridLayers([3]int{side, side, side}, [3]float64{10, 1000, 10})
		if err != nil {
			tb.Fatal(err)
		}
		return m
	}
	if !full {
		return []string{
			matrixBody(tb, "2,2,2", 17, layers(2)),
			haloBody(tb, "2,2,4", 4, 4, 3),
			haloBody(tb, "2,4,4", 4, 8, 1<<40),
		}
	}
	return []string{
		matrixBody(tb, "2,2,2,8", 17, layers(4)),
		haloBody(tb, "2,2,4", 4, 4, 3),
		haloBody(tb, "4,2,2,8", 8, 16, 0),
		haloBody(tb, "4,2,4,2,8", 16, 32, 1<<40),
	}
}

func TestMatrixDecodeTakesServedBodies(t *testing.T) {
	ep, _ := lookupEndpoint("/v1/map/matrix")
	for _, body := range servedMatrixBodies(t, true) {
		if !decodeAgrees(t, body) {
			t.Errorf("strict decoder declined %.80s…", body)
		}
		if _, err := ep.Parse([]byte(body)); err != nil {
			t.Errorf("%.80s…: %v", body, err)
		}
	}
}

// FuzzMatrixDecodeAgrees is the strict decoder's differential test.
func FuzzMatrixDecodeAgrees(f *testing.F) {
	for _, body := range append(servedMatrixBodies(f, false), matrixBodySeeds...) {
		f.Add(body)
	}
	for _, c := range matrixDeclines {
		f.Add(c.body)
	}
	f.Fuzz(func(t *testing.T, body string) { decodeAgrees(t, body) })
}

// decodeAgrees reports whether the strict decoder takes body, and fails t
// unless encoding/json then decodes the same body into an equal request
// and both requests parse to the same key or error.
func decodeAgrees(t *testing.T, body string) bool {
	var fast MatrixMapRequest
	if !fast.decodeStrict([]byte(body)) {
		return false
	}
	var slow MatrixMapRequest
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&slow); err != nil {
		t.Fatalf("strict decoder took a body encoding/json rejects: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Fatalf("strict decoder took trailing data")
	}
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("strict decode %+v, encoding/json %+v", fast, slow)
	}
	if a, b := parsed(&fast), parsed(&slow); a != b {
		t.Fatalf("strict request parses to %q, encoding/json's to %q", a, b)
	}
	return true
}

// outcome renders what Parse makes of a body: the error, or the key.
func outcome(ep Endpoint, body string) string {
	q, err := ep.Parse([]byte(body))
	return rendered(q, err)
}

func parsed(r Request) string { return rendered(r.parse()) }

func rendered(q Query, err error) string {
	if err != nil {
		return err.Error()
	}
	return "key " + q.Key()
}
