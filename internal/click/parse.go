package click

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Program is a parsed configuration: its declarations and connection
// chains in source order, which Instantiate replays through Declare and
// Connect.
type Program struct{ stmts []statement }

// statement declares names as class(args), or connects a chain.
type statement struct {
	names, args []string
	class       string
	chain       []endpoint
}

// Compile parses config, in the language ParseConfig describes, into a
// program. Classes, names and connections are checked when it is
// instantiated.
func Compile(config string) (*Program, error) {
	texts, err := splitStatements(config)
	if err != nil {
		return nil, err
	}
	p := &Program{stmts: make([]statement, len(texts))}
	for i, t := range texts {
		if p.stmts[i], err = parseStatement(t); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Instantiate builds a new router bound to ctx from the program.
func (p *Program) Instantiate(ctx *Context) (*Router, error) {
	r := newRouter(ctx)
	for _, st := range p.stmts {
		for _, n := range st.names {
			if err := r.Declare(n, st.class, st.args...); err != nil {
				return nil, err
			}
		}
		for i := 0; i+1 < len(st.chain); i++ {
			from, to := st.chain[i], st.chain[i+1]
			if err := r.Connect(from.name, from.outPort, to.name, to.inPort); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// ParseConfig parses a Click-language configuration into router
// declarations and connections and applies them to a new router bound to
// ctx. The supported subset covers what IIAS generates:
//
//	// comments and /* comments */
//	name :: Class(arg1, arg2);       // declaration
//	name :: Class;                   // declaration without arguments
//	a -> b -> c;                     // connection chain (ports default 0)
//	a[1] -> [2]b;                    // explicit ports
//
// Elements must be declared before they are referenced in a connection.
// Declare and Connect extend a router after it is built.
func ParseConfig(ctx *Context, config string) (*Router, error) {
	p, err := Compile(config)
	if err != nil {
		return nil, err
	}
	return p.Instantiate(ctx)
}

// splitStatements strips comments and splits on top-level semicolons.
func splitStatements(s string) ([]string, error) {
	var out []string
	var cur strings.Builder
	depth := 0
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == '/' && i+1 < len(s) && s[i+1] == '/':
			for i < len(s) && s[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < len(s) && s[i+1] == '*':
			end := strings.Index(s[i+2:], "*/")
			if end < 0 {
				return nil, fmt.Errorf("click: unterminated /* comment")
			}
			i += end + 4
		case c == '(':
			depth++
			cur.WriteByte(c)
			i++
		case c == ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("click: unbalanced ')'")
			}
			cur.WriteByte(c)
			i++
		case c == ';' && depth == 0:
			if t := strings.TrimSpace(cur.String()); t != "" {
				out = append(out, t)
			}
			cur.Reset()
			i++
		default:
			cur.WriteByte(c)
			i++
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("click: unbalanced '('")
	}
	if t := strings.TrimSpace(cur.String()); t != "" {
		out = append(out, t)
	}
	return out, nil
}

func parseStatement(stmt string) (statement, error) {
	if idx := topLevelIndex(stmt, "::"); idx >= 0 {
		return parseDeclaration(stmt, idx)
	}
	if topLevelIndex(stmt, "->") >= 0 {
		return parseChain(stmt)
	}
	return statement{}, fmt.Errorf("click: cannot parse statement %q", stmt)
}

// topLevelIndex finds needle outside parentheses.
func topLevelIndex(s, needle string) int {
	depth := 0
	for i := 0; i+len(needle) <= len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		}
		if depth == 0 && s[i:i+len(needle)] == needle {
			return i
		}
	}
	return -1
}

func parseDeclaration(stmt string, sep int) (statement, error) {
	st := statement{names: strings.Split(stmt[:sep], ",")}
	rest := strings.TrimSpace(stmt[sep+2:])
	st.class = rest
	if p := strings.IndexByte(rest, '('); p >= 0 {
		if !strings.HasSuffix(rest, ")") {
			return st, fmt.Errorf("click: malformed declaration %q", stmt)
		}
		st.class = strings.TrimSpace(rest[:p])
		var err error
		st.args, err = splitArgs(rest[p+1 : len(rest)-1])
		if err != nil {
			return st, err
		}
	}
	if !validIdent(st.class) {
		return st, fmt.Errorf("click: bad class name %q", st.class)
	}
	for i, n := range st.names {
		st.names[i] = strings.TrimSpace(n)
		if !validIdent(st.names[i]) {
			return st, fmt.Errorf("click: bad element name %q", st.names[i])
		}
	}
	return st, nil
}

// splitArgs splits a Click argument string on top-level commas, trimming
// whitespace. Nested parentheses and double-quoted strings are preserved.
func splitArgs(s string) ([]string, error) {
	var out []string
	var cur strings.Builder
	depth := 0
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inStr:
			cur.WriteByte(c)
			if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
			cur.WriteByte(c)
		case c == '(':
			depth++
			cur.WriteByte(c)
		case c == ')':
			depth--
			cur.WriteByte(c)
		case c == ',' && depth == 0:
			out = append(out, strings.TrimSpace(cur.String()))
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if inStr {
		return nil, fmt.Errorf("click: unterminated string in args %q", s)
	}
	if t := strings.TrimSpace(cur.String()); t != "" || len(out) > 0 {
		out = append(out, t)
	}
	// Drop a single trailing empty arg from "a," style text.
	for len(out) > 0 && out[len(out)-1] == "" {
		out = out[:len(out)-1]
	}
	return out, nil
}

// endpoint is one side of a connection: name with optional [port].
type endpoint struct {
	name    string
	inPort  int
	outPort int
}

func parseChain(stmt string) (statement, error) {
	parts := splitTopLevel(stmt, "->")
	if len(parts) < 2 {
		return statement{}, fmt.Errorf("click: bad connection %q", stmt)
	}
	eps := make([]endpoint, len(parts))
	for i, p := range parts {
		ep, err := parseEndpoint(strings.TrimSpace(p))
		if err != nil {
			return statement{}, err
		}
		eps[i] = ep
	}
	return statement{chain: eps}, nil
}

func splitTopLevel(s, sep string) []string {
	var out []string
	depth, last := 0, 0
	for i := 0; i+len(sep) <= len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		}
		if depth == 0 && s[i:i+len(sep)] == sep {
			out = append(out, s[last:i])
			last = i + len(sep)
			i += len(sep) - 1
		}
	}
	out = append(out, s[last:])
	return out
}

// parseEndpoint parses "[2]name[3]", "name[3]", "[2]name", or "name".
func parseEndpoint(s string) (endpoint, error) {
	ep := endpoint{}
	if strings.HasPrefix(s, "[") {
		end := strings.IndexByte(s, ']')
		if end < 0 {
			return ep, fmt.Errorf("click: bad endpoint %q", s)
		}
		n, err := strconv.Atoi(strings.TrimSpace(s[1:end]))
		if err != nil {
			return ep, fmt.Errorf("click: bad input port in %q", s)
		}
		ep.inPort = n
		s = strings.TrimSpace(s[end+1:])
	}
	if i := strings.IndexByte(s, '['); i >= 0 {
		if !strings.HasSuffix(s, "]") {
			return ep, fmt.Errorf("click: bad endpoint %q", s)
		}
		n, err := strconv.Atoi(strings.TrimSpace(s[i+1 : len(s)-1]))
		if err != nil {
			return ep, fmt.Errorf("click: bad output port in %q", s)
		}
		ep.outPort = n
		s = strings.TrimSpace(s[:i])
	}
	if !validIdent(s) {
		return ep, fmt.Errorf("click: bad element name %q", s)
	}
	ep.name = s
	return ep, nil
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case unicode.IsLetter(r) || r == '_':
		case (unicode.IsDigit(r) || r == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}
