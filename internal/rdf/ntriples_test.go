package rdf

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// sprintfNTriple is the fmt rendering Triple.String used before
// AppendNTriple; the formatter must reproduce it byte for byte, since the
// triples topic is keyed and compared by these bytes.
func sprintfNTriple(t Triple) string { return fmt.Sprintf("%s %s %s .", t.S, t.P, t.O) }

func TestAppendNTripleMatchesSprintf(t *testing.T) {
	s := IRI("http://x/s")
	golden := []struct {
		t    Triple
		want string
	}{
		{Triple{s, IRI("http://x/p"), IRI("http://x/o")}, `<http://x/s> <http://x/p> <http://x/o> .`},
		{Triple{BNode("b1"), RDFType, BNode("b2")}, `_:b1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> _:b2 .`},
		{Triple{s, IRI("http://x/p"), Str("plain")}, `<http://x/s> <http://x/p> "plain" .`},
		{Triple{s, IRI("http://x/p"), Literal{Value: "explicit", Datatype: XSDString}}, `<http://x/s> <http://x/p> "explicit" .`},
		{Triple{s, IRI("http://x/p"), Float(12.5)}, `<http://x/s> <http://x/p> "12.5"^^<http://www.w3.org/2001/XMLSchema#double> .`},
		{Triple{s, IRI("http://x/p"), Time(time.Date(2016, 4, 1, 12, 0, 0, 0, time.UTC))},
			`<http://x/s> <http://x/p> "2016-04-01T12:00:00Z"^^<http://www.w3.org/2001/XMLSchema#dateTime> .`},
		{Triple{s, IRI("http://x/p"), WKT("POINT (23.5 37.25)")},
			`<http://x/s> <http://x/p> "POINT (23.5 37.25)"^^<http://www.opengis.net/ont/geosparql#wktLiteral> .`},
		{Triple{s, IRI("http://x/p"), Str("say \"hi\"\\\n\t\x00é\u2028")}, `<http://x/s> <http://x/p> "say \"hi\"\\\n\t\x00é\u2028" .`},
	}
	for _, g := range golden {
		got := string(g.t.AppendNTriple([]byte("prefix:")))
		if got != "prefix:"+g.want {
			t.Errorf("AppendNTriple = %s, want %s", got, g.want)
		}
		if old := sprintfNTriple(g.t); old != g.want || g.t.String() != g.want {
			t.Errorf("String = %s, fmt form %s, want %s", g.t.String(), old, g.want)
		}
	}
}

func TestAppendNTriples(t *testing.T) {
	doc := "# header\r\n<http://x/s> <http://x/p> \"a\" .\r\n\r\n  \t<http://x/s> <http://x/p> _:b .  \n<http://x/s> <http://x/p> <http://x/o> ."
	got, err := AppendNTriples(nil, []byte(doc))
	if err != nil || len(got) != 3 {
		t.Fatalf("got %d triples, err %v", len(got), err)
	}
	if got[1].O != BNode("b") || got[2].O != IRI("http://x/o") {
		t.Errorf("parsed %v", got)
	}

	// A failing document appends nothing and names the line.
	dst := got[:1]
	bad := "<http://x/s> <http://x/p> \"ok\" .\n\n<http://x/s> <http://x/p> \"open .\n"
	out, err := AppendNTriples(dst, []byte(bad))
	if err == nil || !strings.HasPrefix(err.Error(), "rdf: line 3: object: ") {
		t.Fatalf("err = %v", err)
	}
	if len(out) != 1 || out[0] != got[0] {
		t.Errorf("failed parse changed dst: %v", out)
	}
}

// readNTriplesScanner is the line-scanner reader ReadNTriples used before
// the in-memory parser: the reference the fuzz test holds it to.
func readNTriplesScanner(data []byte) ([]Triple, error) {
	var out []Triple
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := parseNTLine(line)
		if err != nil {
			return nil, fmt.Errorf("rdf: line %d: %w", lineNo, err)
		}
		out = append(out, t)
	}
	return out, sc.Err()
}

func FuzzNTriples(f *testing.F) {
	f.Add([]byte("<http://x/s> <http://x/p> \"v\\n\\\"q\\\"\"^^<http://x/dt> .\r\n# c\n\n_:b <http://x/p> <http://x/o> ."))
	f.Add([]byte("<http://x/s> <http://x/p> \"unterminated .\n"))
	f.Add([]byte("\n\n  <a> <b> _:c .\r\n\"lit\" <p> <o> .\n"))
	f.Add([]byte("<a> <b> \"\xff\" .\n<a> <b> \" \" . \n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := readNTriplesScanner(data)
		read, readErr := ReadNTriples(iotest.OneByteReader(bytes.NewReader(data)))
		prefix := []Triple{{S: IRI("p"), P: IRI("p"), O: IRI("p")}}
		appended, appendErr := AppendNTriples(prefix, data)
		if fmt.Sprint(wantErr) != fmt.Sprint(readErr) || fmt.Sprint(wantErr) != fmt.Sprint(appendErr) {
			t.Fatalf("errors differ: scanner %v, ReadNTriples %v, AppendNTriples %v", wantErr, readErr, appendErr)
		}
		if wantErr != nil {
			if len(appended) != 1 {
				t.Fatalf("failed AppendNTriples kept %d triples, want the 1 in dst", len(appended))
			}
			return
		}
		if !slices.Equal(want, read) || !slices.Equal(want, appended[1:]) {
			t.Fatalf("triples differ:\nscanner %v\nReadNTriples %v\nAppendNTriples %v", want, read, appended[1:])
		}
	})
}

func FuzzAppendNTripleRoundTrip(f *testing.F) {
	f.Add("http://x/s", "b1", "value", "http://x/dt")
	f.Add("s", "", "say \"hi\"\n\x00\xff", "")
	f.Fuzz(func(t *testing.T, iri, bnode, value, dt string) {
		if !validIRI(iri) || !validIRI(dt) || bnode == "" || strings.ContainsAny(bnode, " \t\r\n") {
			t.Skip("not representable in N-Triples")
		}
		in := []Triple{
			{S: IRI(iri), P: IRI(iri), O: Literal{Value: value, Datatype: IRI(dt)}},
			{S: BNode(bnode), P: RDFType, O: IRI(iri)},
		}
		var doc []byte
		for _, tr := range in {
			doc = append(tr.AppendNTriple(doc), '\n')
		}
		got, err := AppendNTriples(nil, doc)
		if err != nil {
			t.Fatalf("parse %q: %v", doc, err)
		}
		// The formatter drops an explicit xsd:string datatype.
		if lit := in[0].O.(Literal); lit.Datatype == XSDString {
			in[0].O = Literal{Value: lit.Value}
		}
		if !slices.Equal(got, in) {
			t.Fatalf("round trip %q: got %v, want %v", doc, got, in)
		}
	})
}

// validIRI reports whether s can sit between N-Triples angle brackets and
// still be parsed back whole.
func validIRI(s string) bool {
	return s != "" && !strings.ContainsAny(s, "<> \t\r\n\"") && strings.TrimSpace(s) == s
}

// allocsPerRun is testing.AllocsPerRun plus the heap bytes per run.
func allocsPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestParseOneLineRecordAllocs gates the batch layer's per-record parse: a
// one-triple record costs a handful of small allocations (the string copy,
// the boxed terms, the result slice), not a line-scanner buffer.
func TestParseOneLineRecordAllocs(t *testing.T) {
	rec := []byte(`<http://www.datacron-project.eu/datAcron#node/227006760/42> <http://www.datacron-project.eu/datAcron#atTime> "2016-04-01T12:34:56Z"^^<http://www.w3.org/2001/XMLSchema#dateTime> .`)
	var dst []Triple
	for name, parse := range map[string]func(){
		"ReadNTriples": func() {
			if _, err := ReadNTriples(bytes.NewReader(rec)); err != nil {
				t.Fatal(err)
			}
		},
		"AppendNTriples": func() {
			var err error
			if dst, err = AppendNTriples(dst[:0], rec); err != nil {
				t.Fatal(err)
			}
		},
	} {
		allocs, heap := allocsPerRun(200, parse)
		if allocs > 8 || heap > 512 {
			t.Errorf("%s: %.1f allocs and %.0f B per one-line record, want ≤ 8 and ≤ 512 B", name, allocs, heap)
		}
	}
}
