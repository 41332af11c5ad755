// Package asm is the assembler front end the two ISA dialects share: the
// line grammar of a kernel source and the lexing of the operand forms both
// dialects spell the same way. It knows no opcode, register file or
// instruction type — internal/sass and internal/siasm each put a mnemonic
// table and their operand kinds on top of it.
//
// The line grammar, one statement per line:
//
//	.kernel <name>       kernel entry name (required, before any instruction)
//	.shared <bytes>      local-memory footprint per group (optional; the
//	                     directive is ".shared" in SASS, ".lds" in SI)
//	<label>:             branch target, alone or in front of an instruction
//	<instruction text>   everything else; the dialect splits it with Cut
//	                     and Fields
//
// Comments are ';' or '//' to end of line and '/* ... */' within a line.
// A ':' that follows a '[' belongs to an operand (s[10:11]), not a label.
//
// The lexing: Fields splits operands at top-level commas; Index reads a
// register, parameter or byte-count index, which is decimal digits only —
// no sign, no prefix; Bracket opens the prefix[...] forms; Literal is the
// 32-bit immediate, a decimal or 0x integer or a float with an 'f' suffix;
// Target resolves a label or the disassembler's absolute @N.
package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Dialect is what the line grammar needs to know about an ISA.
type Dialect struct {
	Name  string // error prefix, "sass" or "siasm"
	Local string // local-memory directive, ".shared" or ".lds"
}

// Errorf formats an error at a source line as "<dialect>: line N: ...".
func (d Dialect) Errorf(line int, format string, args ...any) error {
	return fmt.Errorf("%s: line %d: %s", d.Name, line, fmt.Sprintf(format, args...))
}

// Stmt is one instruction statement with comments and labels removed.
type Stmt struct {
	Line int    // 1-based source line
	Text string // trimmed instruction text
}

// Source is a scanned kernel: its directives, its instruction statements
// in order — statement i assembles to instruction i — and its labels.
type Source struct {
	Name       string // .kernel
	LocalBytes int    // local-memory directive, 0 when absent
	Stmts      []Stmt
	labels     map[string]int // label -> index of the statement it precedes
}

// Scan applies the line grammar to a kernel source.
func (d Dialect) Scan(text string) (*Source, error) {
	s := &Source{labels: make(map[string]int)}
	sawKernel := false
	for i, raw := range strings.Split(text, "\n") {
		ln := i + 1
		line := strings.TrimSpace(stripComment(raw))
		if line == "" {
			continue
		}

		if strings.HasPrefix(line, ".") {
			fields := strings.Fields(line)
			switch fields[0] {
			case ".kernel":
				if len(fields) != 2 {
					return nil, d.Errorf(ln, ".kernel needs exactly one name")
				}
				if sawKernel {
					return nil, d.Errorf(ln, "duplicate .kernel directive")
				}
				s.Name = fields[1]
				sawKernel = true
			case d.Local:
				if len(fields) != 2 {
					return nil, d.Errorf(ln, "%s needs exactly one byte count", d.Local)
				}
				n, ok := Index(fields[1], math.MaxInt)
				if !ok {
					return nil, d.Errorf(ln, "invalid %s size %q", d.Local, fields[1])
				}
				s.LocalBytes = n
			default:
				return nil, d.Errorf(ln, "unknown directive %s", fields[0])
			}
			continue
		}

		// Labels, possibly followed by an instruction on the same line.
		for {
			idx := strings.Index(line, ":")
			// Don't confuse s[10:11] with a label.
			if idx < 0 || strings.Contains(line[:idx], "[") {
				break
			}
			name := strings.TrimSpace(line[:idx])
			if !isIdent(name) {
				return nil, d.Errorf(ln, "invalid label %q", name)
			}
			if _, dup := s.labels[name]; dup {
				return nil, d.Errorf(ln, "duplicate label %q", name)
			}
			s.labels[name] = len(s.Stmts)
			line = strings.TrimSpace(line[idx+1:])
		}
		if line == "" {
			continue
		}
		if !sawKernel {
			return nil, d.Errorf(ln, "instruction before .kernel directive")
		}
		s.Stmts = append(s.Stmts, Stmt{Line: ln, Text: line})
	}
	if !sawKernel {
		return nil, fmt.Errorf("%s: missing .kernel directive", d.Name)
	}
	if len(s.Stmts) == 0 {
		return nil, fmt.Errorf("%s: %s: empty program", d.Name, s.Name)
	}
	return s, nil
}

// Target resolves a branch operand to an instruction index: a label, or
// the disassembler's absolute "@N" form (so disassembled programs
// reassemble without labels). One past the last instruction is a valid
// target in both forms.
func (s *Source) Target(ref string) (int, error) {
	if rest, ok := strings.CutPrefix(ref, "@"); ok {
		n, ok := Index(rest, len(s.Stmts))
		if !ok {
			return 0, fmt.Errorf("branch target %q is not an index @0..@%d into the program", ref, len(s.Stmts))
		}
		return n, nil
	}
	if !isIdent(ref) {
		return 0, fmt.Errorf("bad label %q", ref)
	}
	n, ok := s.labels[ref]
	if !ok {
		return 0, fmt.Errorf("undefined label %q", ref)
	}
	return n, nil
}

// stripComment removes ';', "//" and "/* ... */" comments (the latter
// covers the disassembler's /*0042*/ index prefixes; an unterminated /*
// comments out the rest of the line).
func stripComment(s string) string {
	for {
		i := strings.Index(s, "/*")
		if i < 0 {
			break
		}
		j := strings.Index(s[i+2:], "*/")
		if j < 0 {
			s = s[:i]
			break
		}
		s = s[:i] + " " + s[i+2+j+2:]
	}
	if i := strings.Index(s, ";"); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	return s
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Cut splits statement text at its first blank into the leading word (a
// guard or a mnemonic) and the trimmed rest.
func Cut(s string) (word, rest string) {
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		return s[:i], strings.TrimSpace(s[i+1:])
	}
	return s, ""
}

// Fields splits "R1, [R2+4], 0x10" into trimmed top-level comma fields;
// commas inside brackets do not split.
func Fields(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	return append(out, strings.TrimSpace(s[start:]))
}

// Index parses an index in 0..max written as decimal digits and nothing
// else: no sign, no base prefix, no blanks.
func Index(s string, max int) (int, bool) {
	if s == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		d := int(s[i] - '0')
		if n > max/10 || n == max/10 && d > max%10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// Bracket matches prefix[inner] and returns inner. The prefix compares
// exactly; callers pass case-folded text.
func Bracket(s, prefix string) (inner string, ok bool) {
	rest, ok := strings.CutPrefix(s, prefix)
	if !ok || len(rest) < 2 || rest[0] != '[' || rest[len(rest)-1] != ']' {
		return "", false
	}
	return rest[1 : len(rest)-1], true
}

// Literal parses a 32-bit immediate into its bits: a float32 with an 'f'
// suffix (1.0f, -2.5e-1f), or a decimal or 0x integer anywhere in
// -2^31..2^32-1. A trailing 'f' on a 0x literal is a hex digit.
func Literal(s string) (uint32, error) {
	if s == "" {
		return 0, fmt.Errorf("empty operand")
	}
	hex := len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')
	if last := s[len(s)-1]; (last == 'f' || last == 'F') && !hex {
		v, err := strconv.ParseFloat(s[:len(s)-1], 32)
		if err != nil {
			return 0, fmt.Errorf("bad float literal %q", s)
		}
		return math.Float32bits(float32(v)), nil
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad operand %q", s)
	}
	if v < -(1<<31) || v > (1<<32)-1 {
		return 0, fmt.Errorf("literal %q out of 32-bit range", s)
	}
	return uint32(v), nil
}
