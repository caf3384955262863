// Package scenario is the declarative chaos harness of the suite: a
// zero-dependency DSL that declares a device fleet, a workload mix, timed
// health/traffic events, and assertions on the outcome, plus an executor
// that compiles a parsed scenario onto the existing planes (single-device
// core runs, elastic DDP, partitioned training, and the inference serving
// plane) in one deterministic discrete-event run. Scenario files turn every
// subsystem built so far into reviewable coverage: new cross-plane cases
// are YAML diffs, not Go code.
//
// The file format is a strict subset of YAML, parsed by hand so the repo
// stays dependency-free: scalars, nested mappings, and lists of scalars or
// mappings. Indentation is spaces only, keys are [A-Za-z0-9_-]+, strings
// may be double-quoted, and `#` starts a comment. Everything the full YAML
// spec layers on top — anchors, flow style, multi-document streams, tag
// coercion — is rejected, loudly, with the offending line number. Every
// parse failure is a *ParseError; the parser never panics on any input
// (fuzzed by FuzzParseScenario).
package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseError is the typed error every malformed scenario surfaces: the
// file (when known), the 1-based line, and what went wrong there.
type ParseError struct {
	File string
	Line int
	Msg  string
}

// Error renders "file:line: msg" (or "line N: msg" without a file).
func (e *ParseError) Error() string {
	if e.File != "" {
		return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
	}
	return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
}

// errf builds a *ParseError at the given line (a Scenario built in Go has
// no lines: its errors point at line 1).
func errf(line int, format string, args ...any) *ParseError {
	return &ParseError{Line: max(line, 1), Msg: fmt.Sprintf(format, args...)}
}

// nodeKind discriminates the parse-tree node types.
type nodeKind int

const (
	scalarNode nodeKind = iota
	mapNode
	listNode
)

// node is one value of the parse tree. Maps keep key order for
// deterministic error reporting; every node carries the line it started on
// so the decode layer can blame precise locations.
type node struct {
	line     int
	kind     nodeKind
	scalar   string // scalarNode: raw text (unquoted)
	quoted   bool   // scalarNode: came from a double-quoted literal
	keys     []string
	children map[string]*node // mapNode
	items    []*node          // listNode
}

// line source line after comment stripping.
type srcLine struct {
	num    int
	indent int
	text   string // trimmed content, non-empty
}

// splitLines tokenizes the document into significant lines, rejecting tabs
// in indentation.
func splitLines(src string) ([]srcLine, *ParseError) {
	var out []srcLine
	for i, raw := range strings.Split(src, "\n") {
		num := i + 1
		line := strings.TrimRight(raw, " \r")
		indent := 0
		for indent < len(line) && line[indent] == ' ' {
			indent++
		}
		rest := line[indent:]
		if rest == "" {
			continue
		}
		if rest[0] == '\t' || strings.Contains(line[:indent], "\t") {
			return nil, errf(num, "tab in indentation (spaces only)")
		}
		rest = stripComment(rest)
		rest = strings.TrimRight(rest, " ")
		if rest == "" {
			continue
		}
		out = append(out, srcLine{num: num, indent: indent, text: rest})
	}
	return out, nil
}

// stripComment removes a trailing `#` comment, respecting double quotes.
// A `#` only opens a comment at the start of the line content or after a
// space, matching YAML.
func stripComment(s string) string {
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inQuote = !inQuote
		case '#':
			if inQuote {
				continue
			}
			if i == 0 || s[i-1] == ' ' {
				return s[:i]
			}
		}
	}
	return s
}

// parser walks the significant lines by indentation level.
type parser struct {
	lines []srcLine
	pos   int
}

// Parse parses a scenario document into its typed form. Structural errors
// (syntax, unknown or duplicate keys, type mismatches) are *ParseError
// values carrying the offending line; the input is never executed and the
// parser never panics.
func Parse(src string) (*Scenario, error) {
	lines, err := splitLines(src)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, errf(1, "empty scenario document")
	}
	if lines[0].indent != 0 {
		return nil, errf(lines[0].num, "document must start at column 0")
	}
	// From column 0 the block runs to the last line: nothing dedents below it.
	root, err := (&parser{lines: lines}).parseBlock(0)
	if err != nil {
		return nil, err
	}
	if root.kind != mapNode {
		return nil, errf(lines[0].num, "top level must be a mapping")
	}
	return decodeScenario(root)
}

// ParseNamed is Parse with a file name stamped onto any error.
func ParseNamed(name, src string) (*Scenario, error) {
	sc, err := Parse(src)
	if pe, ok := err.(*ParseError); ok {
		pe.File = name
	}
	return sc, err
}

// isItem reports whether a line opens a list item.
func isItem(text string) bool { return strings.HasPrefix(text, "- ") || text == "-" }

// parseBlock parses the run of lines at exactly the given indent into one
// mapping or list node; the first line decides which.
func (p *parser) parseBlock(indent int) (*node, *ParseError) {
	n := &node{line: p.lines[p.pos].num, kind: listNode}
	if !isItem(p.lines[p.pos].text) {
		n.kind, n.children = mapNode, map[string]*node{}
	}
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.indent < indent {
			break // dedent: parent's turn
		}
		var err *ParseError
		switch {
		case ln.indent > indent:
			err = errf(ln.num, "unexpected indent (expected %d spaces, got %d)", indent, ln.indent)
		case n.kind == mapNode && isItem(ln.text):
			err = errf(ln.num, "list item in a mapping block")
		case n.kind == mapNode:
			err = p.parseEntry(n, ln, indent)
		case !isItem(ln.text):
			err = errf(ln.num, "expected a list item (\"- ...\") at this indent")
		case ln.text == "-":
			err = errf(ln.num, "empty list item")
		default:
			err = p.parseItem(n, ln)
		}
		if err != nil {
			return nil, err
		}
	}
	return n, nil
}

// parseEntry parses one "key: value" / "key:" + block entry into the map n.
func (p *parser) parseEntry(n *node, ln srcLine, indent int) *ParseError {
	key, rest, err := splitKey(ln)
	if err != nil {
		return err
	}
	if _, dup := n.children[key]; dup {
		return errf(ln.num, "duplicate key %q", key)
	}
	p.pos++
	var child *node
	if rest != "" {
		child = &node{line: ln.num, kind: scalarNode}
		child.scalar, child.quoted, err = unquote(ln.num, rest)
	} else if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
		// Block value: the next line must be further indented.
		err = errf(ln.num, "key %q has no value", key)
	} else {
		child, err = p.parseBlock(p.lines[p.pos].indent)
	}
	n.keys = append(n.keys, key)
	n.children[key] = child
	return err
}

// parseItem parses one "- ..." item into the list n. The item body starts
// two columns in: the current line is rewritten as the item's first line,
// and a "key: ..." body parses as a block at that indent (a mapping whose
// later keys align under it); anything else is a scalar item.
func (p *parser) parseItem(n *node, ln srcLine) *ParseError {
	body := ln.text[2:]
	var item *node
	var err *ParseError
	if isKeyLine(body) {
		p.lines[p.pos] = srcLine{num: ln.num, indent: ln.indent + 2, text: body}
		item, err = p.parseBlock(ln.indent + 2)
	} else {
		p.pos++
		item = &node{line: ln.num, kind: scalarNode}
		item.scalar, item.quoted, err = unquote(ln.num, body)
	}
	n.items = append(n.items, item)
	return err
}

// isKeyLine reports whether a list-item body opens a mapping ("key: ..."
// or "key:").
func isKeyLine(body string) bool {
	_, _, err := splitKey(srcLine{num: 1, text: body})
	return err == nil
}

// splitKey splits "key: value" / "key:" returning the key and remaining
// value text ("" for a block value).
func splitKey(ln srcLine) (key, rest string, err *ParseError) {
	i := strings.Index(ln.text, ":")
	if i < 0 {
		return "", "", errf(ln.num, "expected \"key: value\"")
	}
	key = ln.text[:i]
	if key == "" || !validKey(key) {
		return "", "", errf(ln.num, "invalid key %q (want [A-Za-z0-9_-]+)", key)
	}
	rest = ln.text[i+1:]
	if rest != "" {
		if rest[0] != ' ' {
			return "", "", errf(ln.num, "missing space after %q:", key)
		}
		rest = strings.TrimLeft(rest, " ")
	}
	return key, rest, nil
}

func validKey(k string) bool {
	return strings.IndexFunc(k, func(c rune) bool {
		return !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-')
	}) < 0
}

// unquote resolves a scalar literal: a double-quoted string (no escapes
// beyond \" and \\) or bare text.
func unquote(line int, s string) (val string, quoted bool, err *ParseError) {
	if !strings.HasPrefix(s, "\"") {
		if strings.Contains(s, "\"") {
			return "", false, errf(line, "unexpected quote inside bare scalar %q", s)
		}
		return s, false, nil
	}
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\' && i+1 >= len(s):
			return "", false, errf(line, "dangling escape in string literal")
		case c == '\\' && s[i+1] != '"' && s[i+1] != '\\':
			return "", false, errf(line, "unsupported escape \\%c", s[i+1])
		case c == '\\':
			i++
			b.WriteByte(s[i])
		case c == '"' && i != len(s)-1:
			return "", false, errf(line, "trailing content after closing quote")
		case c == '"':
			return b.String(), true, nil
		default:
			b.WriteByte(c)
		}
	}
	return "", false, errf(line, "unterminated string literal")
}

// ---- decode layer ----

// mapDecoder walks one mapping's keys, tracking which were consumed so
// unknown keys fail with their own line numbers.
type mapDecoder struct {
	n    *node
	what string
	used map[string]bool
	err  *ParseError
}

func newMapDecoder(n *node, what string) (*mapDecoder, *ParseError) {
	if n.kind != mapNode {
		return nil, errf(n.line, "%s must be a mapping", what)
	}
	return &mapDecoder{n: n, what: what, used: map[string]bool{}}, nil
}

// get returns the named child (nil if absent), marking it consumed.
func (d *mapDecoder) get(key string) *node {
	c := d.n.children[key]
	if c != nil {
		d.used[key] = true
	}
	return c
}

// fail latches the first error.
func (d *mapDecoder) fail(err *ParseError) {
	if d.err == nil && err != nil {
		d.err = err
	}
}

// field decodes the optional scalar key into dst — a *string, *int, *int64,
// *float64 or *bool — latching a type mismatch; an absent key leaves dst
// untouched. A quoted scalar is a string and nothing else.
func (d *mapDecoder) field(key string, dst any) {
	c := d.get(key)
	if c == nil || d.err != nil {
		return
	}
	var want string
	var convErr error
	switch p := dst.(type) {
	case *string:
		*p = c.scalar
	case *int:
		want = "an integer"
		*p, convErr = strconv.Atoi(c.scalar)
	case *int64:
		want = "an integer"
		*p, convErr = strconv.ParseInt(c.scalar, 10, 64)
	case *float64:
		want = "a number"
		*p, convErr = strconv.ParseFloat(c.scalar, 64)
	case *bool:
		want = "true or false"
		if *p = c.scalar == "true"; !*p && c.scalar != "false" {
			convErr = strconv.ErrSyntax
		}
	}
	switch {
	case c.kind != scalarNode:
		d.err = errf(c.line, "%s.%s must be a scalar value", d.what, key)
	case want != "" && c.quoted:
		d.err = errf(c.line, "%s.%s must be %s, got a string", d.what, key, want)
	case convErr != nil:
		d.err = errf(c.line, "%s.%s must be %s, got %q", d.what, key, want, c.scalar)
	}
}

// section decodes the optional mapping under key through fields.
func (d *mapDecoder) section(key string, fields func(sd *mapDecoder, line int)) {
	if c := d.get(key); c != nil && d.err == nil {
		sd, err := newMapDecoder(c, key)
		if d.fail(err); err == nil {
			fields(sd, c.line)
			d.fail(sd.finish())
		}
	}
}

// list decodes the optional list of mappings under key, each (an item, for
// error messages) through fields.
func (d *mapDecoder) list(key, item string, fields func(id *mapDecoder, line int)) {
	c := d.get(key)
	if c != nil && c.kind != listNode {
		d.fail(errf(c.line, "%s.%s must be a list", d.what, key))
	}
	for i := 0; c != nil && d.err == nil && i < len(c.items); i++ {
		id, err := newMapDecoder(c.items[i], item)
		if d.fail(err); err == nil {
			fields(id, c.items[i].line)
			d.fail(id.finish())
		}
	}
}

// finish reports the latched error, or the first unconsumed (unknown) key.
func (d *mapDecoder) finish() *ParseError {
	if d.err != nil {
		return d.err
	}
	for _, k := range d.n.keys {
		if !d.used[k] {
			return errf(d.n.children[k].line, "unknown key %q in %s", k, d.what)
		}
	}
	return nil
}
