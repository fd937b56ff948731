package click

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

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
func ParseConfig(ctx *Context, config string) (*Router, error) {
	r := newRouter(ctx)
	if err := ParseInto(r, config); err != nil {
		return nil, err
	}
	return r, nil
}

// ParseInto parses config into an existing router, allowing programmatic
// elements (tunnels bound to sockets, say) to be declared first.
func ParseInto(r *Router, config string) error {
	stmts, err := splitStatements(config)
	if err != nil {
		return err
	}
	for _, s := range stmts {
		if err := parseStatement(r, s); err != nil {
			return err
		}
	}
	return nil
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

func parseStatement(r *Router, stmt string) error {
	if idx := topLevelIndex(stmt, "::"); idx >= 0 {
		return parseDeclaration(r, stmt, idx)
	}
	if topLevelIndex(stmt, "->") >= 0 {
		return parseChain(r, stmt)
	}
	return fmt.Errorf("click: cannot parse statement %q", stmt)
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

func parseDeclaration(r *Router, stmt string, sep int) error {
	names := strings.Split(stmt[:sep], ",")
	rest := strings.TrimSpace(stmt[sep+2:])
	class := rest
	var args []string
	if p := strings.IndexByte(rest, '('); p >= 0 {
		if !strings.HasSuffix(rest, ")") {
			return fmt.Errorf("click: malformed declaration %q", stmt)
		}
		class = strings.TrimSpace(rest[:p])
		var err error
		args, err = splitArgs(rest[p+1 : len(rest)-1])
		if err != nil {
			return err
		}
	}
	if !validIdent(class) {
		return fmt.Errorf("click: bad class name %q", class)
	}
	for _, n := range names {
		n = strings.TrimSpace(n)
		if !validIdent(n) {
			return fmt.Errorf("click: bad element name %q", n)
		}
		if err := r.addElement(n, class, args); err != nil {
			return err
		}
	}
	return nil
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

func parseChain(r *Router, stmt string) error {
	parts := splitTopLevel(stmt, "->")
	if len(parts) < 2 {
		return fmt.Errorf("click: bad connection %q", stmt)
	}
	eps := make([]endpoint, len(parts))
	for i, p := range parts {
		ep, err := parseEndpoint(strings.TrimSpace(p))
		if err != nil {
			return err
		}
		eps[i] = ep
	}
	for i := 0; i+1 < len(eps); i++ {
		if err := r.connect(eps[i].name, eps[i].outPort, eps[i+1].name, eps[i+1].inPort); err != nil {
			return err
		}
	}
	return nil
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
