// Tests of the response codec against the encoding/json path it replaced,
// which survives here as the oracle: the frames are byte for byte the ones
// json.Marshal wrote, and the parser reads what encoding/json read.
package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/value"
	"repro/pctagg"
)

// resultOf is a typed result of rows of Go cells: nil, int64, float64,
// string or bool. A column of one kind is a typed vector, a mixed one boxed.
func resultOf(columns []string, rows [][]any) *engine.Result {
	return engine.NewResult(columns, len(rows), func(k, j int) value.Value { return toValue(rows[k][j]) })
}

func toValue(c any) value.Value {
	switch x := c.(type) {
	case int64:
		return value.NewInt(x)
	case float64:
		return value.NewFloat(x)
	case string:
		return value.NewString(x)
	case bool:
		return value.NewBool(x)
	}
	return value.Null
}

func fromValue(v value.Value) any {
	switch v.Kind() {
	case value.KindInt:
		return v.Int()
	case value.KindFloat:
		return v.Float()
	case value.KindString:
		return v.Str()
	case value.KindBool:
		return v.Bool()
	}
	return nil
}

// boxed is what the server used to send for res: its rows as Go cells.
func boxed(res *engine.Result) [][]any {
	res.Box()
	out := make([][]any, len(res.Rows))
	for k, row := range res.Rows {
		out[k] = make([]any, len(row))
		for j, v := range row {
			out[k][j] = fromValue(v)
		}
	}
	return out
}

// oldResponse is the response as json.Marshal wrote it, its rows through
// oldRows.MarshalJSON.
type oldResponse struct {
	ID        int64      `json:"id"`
	OK        bool       `json:"ok"`
	SessionID int64      `json:"session_id,omitempty"`
	Columns   []string   `json:"columns,omitempty"`
	Rows      oldRows    `json:"rows,omitempty"`
	Affected  int64      `json:"affected,omitempty"`
	Err       *wireError `json:"err,omitempty"`
}

// oldFrame is the encoder the codec replaced: json.Marshal, then a copy
// behind the length.
func oldFrame(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if me := (*json.MarshalerError)(nil); errors.As(err, &me) {
		err = me.Unwrap()
	}
	if err != nil {
		return nil, err
	}
	if len(body) > maxFrame {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds the %d-byte cap", len(body), maxFrame)
	}
	buf := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(buf, uint32(len(body)))
	copy(buf[4:], body)
	return buf, nil
}

type oldRows [][]any

func (rows oldRows) MarshalJSON() ([]byte, error) {
	b := []byte{'['}
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, cell := range row {
			if j > 0 {
				b = append(b, ',')
			}
			switch x := cell.(type) {
			case nil:
				b = append(b, "null"...)
			case int64:
				b = strconv.AppendInt(b, x, 10)
			case float64:
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return nil, fmt.Errorf("server: the result holds the REAL %v, which JSON has no number for", x)
				}
				if abs := math.Abs(x); abs > 0 && (abs < 1e-6 || abs >= 1e21) {
					b = strconv.AppendFloat(b, x, 'e', -1, 64)
				} else if s := strconv.FormatFloat(x, 'f', -1, 64); strings.Contains(s, ".") {
					b = append(b, s...)
				} else {
					b = append(b, s+".0"...)
				}
			case string:
				b = oldAppendString(b, x)
			case bool:
				b = strconv.AppendBool(b, x)
			default:
				return nil, fmt.Errorf("server: a result cell of type %T", x)
			}
		}
		b = append(b, ']')
	}
	return append(b, ']'), nil
}

// oldAppendString escaped '"', '\\' and control characters and replaced
// invalid UTF-8; json.Marshal then escaped '<', '>', '&', U+2028 and U+2029
// as it compacted MarshalJSON's output.
func oldAppendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	from := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' && c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if c >= utf8.RuneSelf && (r != utf8.RuneError || size > 1) {
			i += size
			continue
		}
		b = append(b, s[from:i]...)
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c == '\t':
			b = append(b, '\\', 't')
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, `\ufffd`...)
		}
		i += size
		from = i
	}
	b = append(b, s[from:]...)
	return append(b, '"')
}

// jsonFrame reads one length-prefixed frame into v with encoding/json, as the
// server read requests before it had a frame reader: a json.Decoder over the
// body, numbers bound for an any-typed field as json.Number, and the rest of
// the frame after the value discarded.
func jsonFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return fmt.Errorf("server: frame of %d bytes exceeds the %d-byte cap", n, maxFrame)
	}
	body := &io.LimitedReader{R: r, N: int64(n)}
	dec := json.NewDecoder(body)
	dec.UseNumber()
	err := dec.Decode(v)
	if err == nil {
		_, err = io.Copy(io.Discard, body)
	}
	if body.N > 0 && (err == nil || err == io.EOF) {
		err = fmt.Errorf("server: frame body ended %d bytes short of its %d-byte length: %w", body.N, n, io.ErrUnexpectedEOF)
	}
	return err
}

// oldRead is the decoder the codec replaced: encoding/json into a response,
// numbers as json.Number, then each number cell read back as an INTEGER or a
// REAL. ok is false when a cell is an array or an object, which the oracle
// keeps as decoded and no server writes.
func oldRead(data []byte) (resp *response, ok bool, err error) {
	resp = new(response)
	if err := jsonFrame(bytes.NewReader(data), resp); err != nil {
		return nil, false, err
	}
	for _, row := range resp.Rows {
		for i, cell := range row {
			switch n := cell.(type) {
			case json.Number:
				if !strings.ContainsAny(string(n), ".eE") {
					if v, err := strconv.ParseInt(string(n), 10, 64); err == nil {
						row[i] = v
						continue
					}
				}
				row[i], _ = n.Float64()
			case []any, map[string]any:
				return resp, false, nil
			}
		}
	}
	return resp, true, nil
}

// sameResponse reports how a and b differ, field by field and cell by cell,
// a REAL to the bit; "" when they do not.
func sameResponse(a, b *response) string {
	switch {
	case a.ID != b.ID || a.OK != b.OK || a.SessionID != b.SessionID || a.Affected != b.Affected:
		return fmt.Sprintf("header %d/%v/%d/%d against %d/%v/%d/%d", a.ID, a.OK, a.SessionID, a.Affected, b.ID, b.OK, b.SessionID, b.Affected)
	case !reflect.DeepEqual(a.Columns, b.Columns) || (a.Columns == nil) != (b.Columns == nil):
		return fmt.Sprintf("columns %#v against %#v", a.Columns, b.Columns)
	case !reflect.DeepEqual(a.Err, b.Err):
		return fmt.Sprintf("err %+v against %+v", a.Err, b.Err)
	case len(a.Rows) != len(b.Rows) || (a.Rows == nil) != (b.Rows == nil):
		return fmt.Sprintf("rows %#v against %#v", a.Rows, b.Rows)
	}
	for k := range a.Rows {
		if len(a.Rows[k]) != len(b.Rows[k]) || (a.Rows[k] == nil) != (b.Rows[k] == nil) {
			return fmt.Sprintf("row %d: %#v against %#v", k, a.Rows[k], b.Rows[k])
		}
		for j, x := range a.Rows[k] {
			y := b.Rows[k][j]
			fx, xf := x.(float64)
			fy, yf := y.(float64)
			if xf && yf && math.Float64bits(fx) != math.Float64bits(fy) || !(xf && yf) && x != y {
				return fmt.Sprintf("row %d cell %d: %#v against %#v", k, j, x, y)
			}
		}
	}
	return ""
}

// wireDB holds t, the table TestWireRowsMatchQuery reads, and e, a table of
// the values an encoder can get wrong: the int64 extremes, both zeros, REALs
// at and past the exponent thresholds, and strings holding what encoding/json
// escapes.
func wireDB(t testing.TB) *pctagg.DB {
	t.Helper()
	db := pctagg.Open()
	if _, err := db.Exec("CREATE TABLE t (k INTEGER, x REAL, s VARCHAR, b BOOLEAN); CREATE TABLE e (i INTEGER, x REAL, s VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("t", [][]any{
		{int64(1), 2.0, "a", true},
		{int64(-7), math.Copysign(0, -1), "quote \" back \\ tab \t é", false},
		{int64(1 << 40), 0.5, "", nil},
		{int64(4), 1e21, nil, true},
		{nil, nil, "a", false},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("e", [][]any{
		{int64(math.MaxInt64), 0.0, "<>&"},
		{int64(math.MinInt64), math.Copysign(0, -1), "line\u2028para\u2029"},
		{int64(255), 1e21, "\xff\xfe bad \xc3"},
		{int64(256), 1e-7, "\b\f\x00\x1f\x7f"},
		{int64(-1), 9.99e20, "é 日本 \"/\\"},
		{int64(0), 1e-6, ""},
		{nil, 5e-324, "\u2027\u202a"},
		{int64(1), -123456.0, nil},
		{int64(2), math.MaxFloat64, "\xed\xa0\x80"},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

// wireQueries are the statements TestWireFrameMatchesJSON sends wireDB: its
// hand set, every column of e, a boxed (mixed-kind) column and a result with
// columns and no rows.
var wireQueries = []string{
	"SELECT k, x, s, b FROM t ORDER BY k",
	"SELECT b, Vpct(x) FROM t WHERE k = 1 GROUP BY b",
	"SELECT i, x, s FROM e",
	"SELECT i, CASE WHEN i > 1 THEN s WHEN i < 0 THEN x ELSE i END, x = 0.0 FROM e",
	"SELECT i FROM e WHERE i = 7",
}

// TestWireFrameMatchesJSON: every frame appendResponse writes is byte for byte
// the one json.Marshal wrote for the same response, over the differential
// suites' random tables (three seeds), the hand set of TestWireRowsMatchQuery,
// the encoders' edge values, and the responses that carry no rows.
func TestWireFrameMatchesJSON(t *testing.T) {
	check := func(name string, resp *response, rows [][]any) {
		t.Helper()
		got, gotErr := appendResponse(nil, resp)
		want, wantErr := oldFrame(&oldResponse{ID: resp.ID, OK: resp.OK, SessionID: resp.SessionID,
			Columns: resp.Columns, Rows: rows, Affected: resp.Affected, Err: resp.Err})
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: err %v, json.Marshal's %v", name, gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\ngot  %q\nwant %q", name, got, want)
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		p := difftest.PlannerFor(t, difftest.RandTableRows(rand.New(rand.NewSource(seed)), 300))
		for _, q := range difftest.PropertyQueries {
			res, err := difftest.Run(p, q.SQL, q.Opts, 1)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("seed %d: %s", seed, q.SQL), &response{ID: seed, OK: true, Columns: res.Columns, res: res}, boxed(res))
		}
	}
	db := wireDB(t)
	for i, q := range wireQueries {
		res, err := db.QueryTypedCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		check(q, &response{ID: int64(i), OK: true, Columns: res.Columns, res: res}, rows.Data)
	}
	odd := []string{"a<b>&c", "\b\f\n\x01", "\u2028", "\xff", "é"}
	cells := [][]any{{"x", int64(1), 0.5, true, nil}}
	for _, c := range []struct {
		name string
		resp *response
		rows [][]any
	}{
		{"hello", &response{ID: 1, OK: true, SessionID: 9}, nil},
		{"ping", &response{ID: math.MaxInt64, OK: true}, nil},
		{"dml", &response{ID: -3, OK: true, Affected: 12}, nil},
		{"admission", &response{ID: 4, Err: &wireError{Code: "PCT210", Message: "server: queue full", Retryable: true, BackoffMs: 25}}, nil},
		{"notice", &response{Err: &wireError{Message: odd[0] + odd[1] + odd[2] + odd[3] + odd[4]}}, nil},
		{"odd names", &response{ID: 5, OK: true, Columns: odd, res: resultOf(odd, cells)}, cells},
		{"non-finite", &response{ID: 6, OK: true, Columns: []string{"x"}, res: resultOf([]string{"x"}, [][]any{{1.0}, {math.Inf(-1)}})}, [][]any{{1.0}, {math.Inf(-1)}}},
	} {
		check(c.name, c.resp, c.rows)
	}
}

// loop is a reader that yields one frame over and over.
type loop struct {
	frame []byte
	at    int
}

func (l *loop) Read(p []byte) (int, error) {
	n := copy(p, l.frame[l.at:])
	l.at = (l.at + n) % len(l.frame)
	return n, nil
}

// TestResponseCodecAllocs: a 4 000 × 5 result shaped like a Vpct answer —
// four INTEGER keys and a REAL — plus a VARCHAR column of few strings. Once
// its buffer has grown, the encoder allocates nothing; the decoder allocates
// one box for each REAL and each INTEGER outside 0–255, and a constant: the
// response, its slab, its rows, and its columns' array grown a name at a time
// as encoding/json grows it. The strings were met before.
func TestResponseCodecAllocs(t *testing.T) {
	const n = 4000
	rows := make([][]any, n)
	boxes := 0
	for k := range rows {
		rows[k] = []any{int64(k % 2), int64(k % 4), int64(k % 5), int64(k), float64(k) / 7, []string{"CA", "TX", "NY"}[k%3]}
		boxes += 1 + min(1, k/256) // the REAL, and the key past 255
	}
	res := resultOf([]string{"gender", "marstatus", "educat", "age", "pct", "state"}, rows)
	resp := &response{ID: 3, OK: true, Columns: res.Columns, res: res}
	frame, err := appendResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	buf := frame
	if a := testing.AllocsPerRun(20, func() { buf, _ = appendResponse(buf[:0], resp) }); a > 0 {
		t.Errorf("encode: %.0f allocations, want none", a)
	}
	rr := newFrameReader(&loop{frame: frame})
	got, err := rr.response()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, rows) {
		t.Fatal("decoded rows differ")
	}
	const fixed = 8
	if a := testing.AllocsPerRun(20, func() { rr.response() }); a > float64(boxes+fixed) {
		t.Errorf("decode: %.0f allocations, want at most %d boxes + %d", a, boxes, fixed)
	}
}

// responseSeeds are frames for FuzzResponseDecode to start from: encoder
// output, and bodies that test what encoding/json allows beyond it.
func responseSeeds(t testing.TB) [][]byte {
	res := resultOf([]string{"k", "x", "s", "b"}, [][]any{
		{int64(1), 2.0, "a\"\\\n\x01<é\u2028", true},
		{int64(math.MinInt64), 1e-7, "\xff", nil},
		{nil, math.Copysign(0, -1), nil, false},
	})
	var seeds [][]byte
	for _, resp := range []*response{
		{ID: 7, OK: true, Columns: res.Columns, res: res},
		{ID: 1, OK: true, SessionID: 42},
		{ID: 2, Err: &wireError{Code: "PCT210", Message: "queue full", Retryable: true, BackoffMs: 10}},
		{ID: 3, OK: true, Affected: 5},
		{ID: 4, OK: true, Columns: []string{"a"}},
	} {
		b, err := appendResponse(nil, resp)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, b, b[:len(b)-3])
	}
	for _, body := range []string{
		`null`, `null trailing`, ` {"id":1} {"id":2}`, `[1]`, `{"ID":1,"Ok":true,"ſession_id":2,"AFFECTED":3}`,
		`{"id":1,"id":null,"ok":true,"ok":null}`, `{"columns":["a","b"],"columns":[null]}`,
		`{"err":{"code":"x"},"err":{"message":"y"}}`, `{"err":{"code":"x"},"err":null}`,
		`{"rows":[[1,-0,1.0,1e400,-9223372036854775808,9223372036854775808,"\ud83d\ude00\ud800x\u00e9"],null,[]]}`,
		`{"rows":[[[1]]]}`, `{"rows":[[{"a":1}]]}`, `{"unknown":{"a":[1,{"b":null}],"c":"\u0041"},"id":5}`,
		`{"id":1.5}`, `{"id":"1"}`, `{"rows":[1]}`, `{"columns":[1]}`, `{"\u0069d":9}`, `{"id":01}`, "{\"s\":\"\x01\"}",
		`{"rows":[[1,]]}`, `{`, `{"id"`, ``, "   ",
	} {
		b := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
		seeds = append(seeds, append(b, body...))
	}
	return append(seeds, []byte{0xff, 0xff, 0xff, 0xff}, []byte{0x01, 0x00, 0x00, 0x00}, []byte{0, 0})
}

// FuzzResponseDecode feeds arbitrary bytes to the response reader. It must
// not panic; it returns an error or a response; what it allocates is bounded
// by the bytes that came, whatever the header claims; and wherever the
// encoding/json oracle decodes the frame, the two agree on every field and
// cell — but for a cell that is an array or an object, which the oracle keeps
// and the parser refuses.
func FuzzResponseDecode(f *testing.F) {
	for _, b := range responseSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rr := newFrameReader(bytes.NewReader(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := rr.response()
		runtime.ReadMemStats(&after)
		if err == nil && got == nil {
			t.Fatal("no error and no response")
		}
		if a, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+64<<10); a > limit {
			t.Errorf("%d input bytes allocated %d bytes, want at most %d", len(data), a, limit)
		}
		want, scalar, wantErr := oldRead(data)
		switch {
		case wantErr != nil:
		case !scalar && err == nil:
			t.Fatalf("a cell that is not a scalar decoded: %#v", got.Rows)
		case scalar && err != nil:
			t.Fatalf("encoding/json decodes %+v; the parser fails: %v", want, err)
		case scalar:
			if d := sameResponse(got, want); d != "" {
				t.Fatalf("parser against encoding/json: %s", d)
			}
		}
	})
}

// TestResponseDecodeSeeds runs the fuzzer's seeds through the parser and the
// oracle with the errors spelled out, so a divergence names its input.
func TestResponseDecodeSeeds(t *testing.T) {
	for _, data := range responseSeeds(t) {
		got, err := newFrameReader(bytes.NewReader(data)).response()
		want, scalar, wantErr := oldRead(data)
		if wantErr != nil || !scalar {
			if !scalar && err == nil {
				t.Errorf("%q: a non-scalar cell decoded", data)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: encoding/json decodes it, the parser fails: %v", data, err)
			continue
		}
		if d := sameResponse(got, want); d != "" {
			t.Errorf("%q: %s", data, d)
		}
	}
	if _, err := newFrameReader(bytes.NewReader([]byte{0, 0, 0, 9, '{'})).response(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short body: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// BenchmarkResponseCodec times one 4 000 × 5 Vpct-shaped response frame
// through each end of the codec.
func BenchmarkResponseCodec(b *testing.B) {
	rows := make([][]any, 4000)
	for k := range rows {
		rows[k] = []any{int64(k % 2), int64(k % 4), int64(k % 5), int64(k % 100), float64(k) / 7}
	}
	res := resultOf([]string{"gender", "marstatus", "educat", "age", "pct"}, rows)
	resp := &response{ID: 3, OK: true, Columns: res.Columns, res: res}
	frame, err := appendResponse(nil, resp)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		buf := frame
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = appendResponse(buf[:0], resp)
		}
	})
	b.Run("decode", func(b *testing.B) {
		rr := newFrameReader(&loop{frame: frame})
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rr.response(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
