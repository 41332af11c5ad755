package repro

import (
	"bufio"
	"bytes"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The checks that keep DESIGN.md a description of the tree as it is.

// designDoc returns DESIGN.md as written and with every run of
// whitespace collapsed to one space, so a quoted section name matches
// however it is wrapped.
func designDoc(t *testing.T) (raw, flat string) {
	t.Helper()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	return string(b), strings.Join(strings.Fields(string(b)), " ")
}

// citingFiles lists the files that cite DESIGN.md by a quoted section
// name: every Go file, the CI workflows, README.md and the verify skill.
// The change logs are history and are not held to today's headings.
func citingFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	workflows, err := filepath.Glob(filepath.Join(".github", "workflows", "*.yml"))
	if err != nil {
		t.Fatal(err)
	}
	return append(append(files, workflows...), goFiles(t, ".go")...)
}

// goFiles lists the files of the module whose names end in suffix,
// outside hidden directories.
func goFiles(t *testing.T, suffix string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, suffix) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// citation matches the file name, an optional closing backtick and
// opening parenthesis, and the quoted section name after it, which
// starts with a letter.
var citation = regexp.MustCompile("DESIGN\\.md`?\\s*\\(?\"([A-Za-z][^\"]*)\"")

// lineJoin removes the line breaks and comment markers a citation may be
// wrapped across.
var lineJoin = regexp.MustCompile(`\s*\n\s*(?://|#)?\s*`)

// TestDesignCitationsResolve: every quoted DESIGN.md section named in
// code, CI, README.md or the verify skill is a heading or text of it.
func TestDesignCitationsResolve(t *testing.T) {
	_, doc := designDoc(t)
	n := 0
	for _, path := range citingFiles(t) {
		b, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		text := lineJoin.ReplaceAllString(string(b), " ")
		for _, m := range citation.FindAllStringSubmatch(text, -1) {
			n++
			name := strings.Join(strings.Fields(m[1]), " ")
			if !strings.Contains(doc, name) {
				t.Errorf("%s cites DESIGN.md %q, which DESIGN.md does not contain", path, name)
			}
		}
	}
	if n == 0 {
		t.Fatal("found no DESIGN.md citation at all; the pattern no longer matches how they are written")
	}
}

// TestDesignInventoryNamesEveryPackage: the System inventory names every
// package go list ./... prints, by its path inside the module (the root
// package by the module's name).
func TestDesignInventoryNamesEveryPackage(t *testing.T) {
	raw, _ := designDoc(t)
	_, inv, ok := strings.Cut(raw, "\n## System inventory\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "## System inventory" section`)
	}
	if i := strings.Index(inv, "\n## "); i >= 0 {
		inv = inv[:i]
	}
	named := map[string]bool{}
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(inv, -1) {
		named[m[1]] = true
	}
	out, err := exec.Command("go", "list", "-m").Output()
	if err != nil {
		t.Fatal(err)
	}
	module := strings.TrimSpace(string(out))
	out, err = exec.Command("go", "list", "./...").Output()
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	n := 0
	for sc.Scan() {
		pkg := sc.Text()
		n++
		name := strings.TrimPrefix(pkg, module+"/")
		if !named[name] {
			t.Errorf("the System inventory of DESIGN.md does not name package %s (as `%s`)", pkg, name)
		}
	}
	if n == 0 {
		t.Fatal("go list ./... printed no package")
	}
}

// TestDesignNamesLiveTests: every test, fuzz target and benchmark that
// DESIGN.md cites as a proof exists, outside the "Retired surfaces"
// table, which names the retired ones on purpose.
func TestDesignNamesLiveTests(t *testing.T) {
	raw, _ := designDoc(t)
	live, _, _ := strings.Cut(raw, "\n## Retired surfaces\n")
	defined := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w+)\(`)
	for _, path := range goFiles(t, "_test.go") {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range decl.FindAllSubmatch(b, -1) {
			defined[string(m[1])] = true
		}
	}
	for _, name := range regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`).FindAllString(live, -1) {
		if !defined[name] {
			t.Errorf("DESIGN.md cites %s, which no _test.go file defines", name)
		}
	}
}
