package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteNTriples serialises triples in N-Triples format, one per line.
func WriteNTriples(w io.Writer, triples []Triple) error {
	bw := bufio.NewWriter(w)
	line := make([]byte, 0, 256)
	for _, t := range triples {
		line = append(t.AppendNTriple(line[:0]), '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadNTriples parses an N-Triples document. Blank lines and #-comments are
// skipped; lines end in "\n" or "\r\n". Errors carry the line number. The
// document is read whole and parsed by AppendNTriples, so line length is
// bounded only by memory.
func ReadNTriples(r io.Reader) ([]Triple, error) {
	var doc strings.Builder
	if _, err := io.Copy(&doc, r); err != nil {
		return nil, err
	}
	return appendNTriples(nil, doc.String())
}

// AppendNTriples parses an in-memory N-Triples document with the rules of
// ReadNTriples and appends its triples to dst. The terms share one copy of
// data. On error it returns dst with nothing appended, so a caller can skip
// a malformed record and keep the triples before it.
func AppendNTriples(dst []Triple, data []byte) ([]Triple, error) {
	return appendNTriples(dst, string(data))
}

func appendNTriples(dst []Triple, doc string) ([]Triple, error) {
	n := len(dst)
	for lineNo := 1; doc != ""; lineNo++ {
		line := doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			line, doc = doc[:i], doc[i+1:]
		} else {
			doc = ""
		}
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		t, err := parseNTLine(line)
		if err != nil {
			return dst[:n], lineError(lineNo, err)
		}
		dst = append(dst, t)
	}
	return dst, nil
}

// lineError is the cold-path constructor of a parse error, kept out of the
// per-line loop.
func lineError(lineNo int, err error) error {
	return fmt.Errorf("rdf: line %d: %w", lineNo, err)
}

func parseNTLine(line string) (Triple, error) {
	rest := line
	s, rest, err := parseNTTerm(rest)
	if err != nil {
		return Triple{}, fmt.Errorf("subject: %w", err)
	}
	p, rest, err := parseNTTerm(rest)
	if err != nil {
		return Triple{}, fmt.Errorf("predicate: %w", err)
	}
	o, rest, err := parseNTTerm(rest)
	if err != nil {
		return Triple{}, fmt.Errorf("object: %w", err)
	}
	rest = strings.TrimSpace(rest)
	if rest != "." {
		return Triple{}, fmt.Errorf("expected terminating '.', got %q", rest)
	}
	if _, ok := p.(IRI); !ok {
		return Triple{}, fmt.Errorf("predicate must be an IRI")
	}
	switch s.(type) {
	case IRI, BNode:
	default:
		return Triple{}, fmt.Errorf("subject must be an IRI or blank node")
	}
	return Triple{S: s, P: p, O: o}, nil
}

// parseNTTerm reads one term from the front of s and returns the remainder.
func parseNTTerm(s string) (Term, string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, "", fmt.Errorf("unexpected end of line")
	}
	switch s[0] {
	case '<':
		end := strings.IndexByte(s, '>')
		if end < 0 {
			return nil, "", fmt.Errorf("unterminated IRI")
		}
		return IRI(s[1:end]), s[end+1:], nil
	case '_':
		if !strings.HasPrefix(s, "_:") {
			return nil, "", fmt.Errorf("malformed blank node")
		}
		end := strings.IndexAny(s, " \t")
		if end < 0 {
			end = len(s)
		}
		return BNode(s[2:end]), s[end:], nil
	case '"':
		// Find the closing quote honouring escapes.
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, "", fmt.Errorf("unterminated literal")
		}
		val, err := strconv.Unquote(s[:end+1])
		if err != nil {
			return nil, "", fmt.Errorf("bad literal escape: %w", err)
		}
		rest := s[end+1:]
		lit := Literal{Value: val}
		if strings.HasPrefix(rest, "^^<") {
			dtEnd := strings.IndexByte(rest, '>')
			if dtEnd < 0 {
				return nil, "", fmt.Errorf("unterminated datatype IRI")
			}
			lit.Datatype = IRI(rest[3:dtEnd])
			rest = rest[dtEnd+1:]
		}
		return lit, rest, nil
	default:
		return nil, "", fmt.Errorf("unexpected term start %q", s[0])
	}
}
