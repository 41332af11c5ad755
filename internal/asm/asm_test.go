package asm

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

var testDialect = Dialect{Name: "t", Local: ".local"}

func TestScan(t *testing.T) {
	s, err := testDialect.Scan(`
; leading comment
.local 64   // replaced below
.kernel k
.local 128
top: /*0000*/ op a, b ; trailing
     op2 s[10:11], x   // the ':' after '[' is no label
a: b:
mid: @P0 op3 /* gone */ c
end:
`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "k" || s.LocalBytes != 128 {
		t.Fatalf("directives: name %q, local %d", s.Name, s.LocalBytes)
	}
	want := []Stmt{{6, "op a, b"}, {7, "op2 s[10:11], x"}, {9, "@P0 op3   c"}}
	if !reflect.DeepEqual(s.Stmts, want) {
		t.Fatalf("statements %+v, want %+v", s.Stmts, want)
	}
	for ref, idx := range map[string]int{
		"top": 0, "a": 2, "b": 2, "mid": 2, // backward, stacked and same-line labels
		"end": 3, // one past the last instruction
		"@0":  0, "@2": 2, "@3": 3, "@003": 3,
	} {
		if got, err := s.Target(ref); err != nil || got != idx {
			t.Errorf("Target(%q) = %d, %v; want %d", ref, got, err, idx)
		}
	}
	for _, ref := range []string{"nowhere", "@4", "@+1", "@-1", "@", "@1x", "9lives", "a b", "", "s[1:2]"} {
		if got, err := s.Target(ref); err == nil {
			t.Errorf("Target(%q) = %d, want an error", ref, got)
		}
	}
}

func TestScanErrors(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"missing kernel", "x:\n", "t: missing .kernel directive"},
		{"empty", ".kernel k\nx:\n", "t: k: empty program"},
		{"kernel without name", ".kernel\nop\n", "t: line 1: .kernel needs exactly one name"},
		{"kernel with two names", ".kernel a b\nop\n", "t: line 1: .kernel needs exactly one name"},
		{"duplicate kernel", ".kernel a\n.kernel b\nop\n", "t: line 2: duplicate .kernel directive"},
		{"local without size", ".kernel k\n.local\nop\n", "t: line 2: .local needs exactly one byte count"},
		{"local signed", ".kernel k\n.local +64\nop\n", `t: line 2: invalid .local size "+64"`},
		{"local negative", ".kernel k\n.local -1\nop\n", `t: line 2: invalid .local size "-1"`},
		{"local hex", ".kernel k\n.local 0x40\nop\n", `t: line 2: invalid .local size "0x40"`},
		{"local overflow", ".kernel k\n.local 99999999999999999999\nop\n", `t: line 2: invalid .local size "99999999999999999999"`},
		{"other dialect's directive", ".kernel k\n.shared 64\nop\n", "t: line 2: unknown directive .shared"},
		{"instruction first", "\n\nop\n.kernel k\n", "t: line 3: instruction before .kernel directive"},
		{"bad label", ".kernel k\n9x: op\n", `t: line 2: invalid label "9x"`},
		{"label with blank", ".kernel k\nop a: b\n", `t: line 2: invalid label "op a"`},
		{"duplicate label", ".kernel k\nx: op\ny: x: op\n", `t: line 3: duplicate label "x"`},
	} {
		_, err := testDialect.Scan(tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %s", tc.name, err, tc.want)
		}
	}
}

func TestCutAndFields(t *testing.T) {
	for _, tc := range []struct{ in, word, rest string }{
		{"EXIT", "EXIT", ""},
		{"MOV R0, 1", "MOV", "R0, 1"},
		{"@!P0\t  BRA  x", "@!P0", "BRA  x"},
	} {
		if w, r := Cut(tc.in); w != tc.word || r != tc.rest {
			t.Errorf("Cut(%q) = %q, %q", tc.in, w, r)
		}
	}
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"  ", nil},
		{"R1", []string{"R1"}},
		{"R1, [R2+4] ,0x10", []string{"R1", "[R2+4]", "0x10"}},
		{"s[10:11], x[a,b], c", []string{"s[10:11]", "x[a,b]", "c"}}, // a bracketed comma does not split
		{"a,,b,", []string{"a", "", "b", ""}},                        // empty fields are kept for the operand parser to reject
	} {
		if got := Fields(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Fields(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestIndex(t *testing.T) {
	for _, tc := range []struct {
		s   string
		max int
		n   int
		ok  bool
	}{
		{"0", 0, 0, true},
		{"1", 0, 0, false},
		{"7", 5, 0, false},
		{"127", 127, 127, true},
		{"128", 127, 0, false},
		{"007", 127, 7, true},
		{"65535", 0xffff, 65535, true},
		{"65536", 0xffff, 0, false},
		{"9223372036854775807", math.MaxInt64, math.MaxInt64, true},
		{"9223372036854775808", math.MaxInt64, 0, false},
		{"99999999999999999999999", math.MaxInt64, 0, false},
		{"", 9, 0, false},
		{"+5", 9, 0, false},
		{"-0", 9, 0, false},
		{" 5", 9, 0, false},
		{"0x5", 9, 0, false},
		{"1_0", 99, 0, false},
		{"٣", 9, 0, false}, // a Unicode digit is not a digit
	} {
		if n, ok := Index(tc.s, tc.max); n != tc.n || ok != tc.ok {
			t.Errorf("Index(%q, %d) = %d, %v; want %d, %v", tc.s, tc.max, n, ok, tc.n, tc.ok)
		}
	}
}

func TestBracket(t *testing.T) {
	for _, tc := range []struct {
		s, prefix, inner string
		ok               bool
	}{
		{"c[3]", "c", "3", true},
		{"karg[12]", "karg", "12", true},
		{"[R1+4]", "", "R1+4", true},
		{"c[]", "c", "", true},
		{"C[3]", "c", "", false},
		{"c[3", "c", "", false},
		{"c3]", "c", "", false},
		{"c[", "c", "", false},
		{"c", "c", "", false},
		{"", "", "", false},
	} {
		if inner, ok := Bracket(tc.s, tc.prefix); inner != tc.inner || ok != tc.ok {
			t.Errorf("Bracket(%q, %q) = %q, %v", tc.s, tc.prefix, inner, ok)
		}
	}
}

func TestLiteral(t *testing.T) {
	for _, tc := range []struct {
		s    string
		bits uint32
	}{
		{"0", 0},
		{"+5", 5},
		{"-1", 0xffffffff},
		{"-2147483648", 0x80000000},
		{"4294967295", 0xffffffff},
		{"0x7F7FFFFF", 0x7f7fffff},
		{"0x1f", 0x1f}, // a hex literal's trailing f is a digit, not the float suffix
		{"0X1F", 0x1f},
		{"1.5f", math.Float32bits(1.5)},
		{"-2.5e-1F", math.Float32bits(-0.25)},
		{"1f", math.Float32bits(1)},
	} {
		if bits, err := Literal(tc.s); err != nil || bits != tc.bits {
			t.Errorf("Literal(%q) = %#x, %v; want %#x", tc.s, bits, err, tc.bits)
		}
	}
	for s, want := range map[string]string{
		"":            "empty operand",
		"4294967296":  "out of 32-bit range",
		"-2147483649": "out of 32-bit range",
		"zzz":         "bad operand",
		"1.5":         "bad operand", // a float needs its suffix
		"1e40f":       "bad float literal",
		"f":           "bad float literal",
		"-0x1f":       "bad float literal", // only an unsigned 0x prefix turns the suffix off
	} {
		if bits, err := Literal(s); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Literal(%q) = %#x, %v; want error %q", s, bits, err, want)
		}
	}
}
