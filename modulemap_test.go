package polaris_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// dirs returns the names of the directories under parent; with goOnly,
// of those that hold Go files.
func dirs(t *testing.T, parent string, goOnly bool) []string {
	t.Helper()
	entries, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "testdata" {
			continue
		}
		if goOnly {
			if goFiles, _ := filepath.Glob(filepath.Join(parent, e.Name(), "*.go")); len(goFiles) == 0 {
				continue
			}
		}
		names = append(names, e.Name())
	}
	return names
}

// readmeArchitecture returns the names README's Architecture block
// lists under each of its headings ("cmd/", "internal/"), and the line
// that counts the examples. A name line is indented two spaces and
// names one or more packages, comma-separated, before its description.
func readmeArchitecture(t *testing.T) (map[string][]string, string) {
	t.Helper()
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	at := strings.Index(s, "## Architecture\n")
	if at < 0 {
		t.Fatal("README.md has no Architecture section")
	}
	s = s[at:]
	start := strings.Index(s, "```\n")
	end := strings.Index(s[start+4:], "```")
	if start < 0 || end < 0 {
		t.Fatal("README.md's Architecture section has no code block")
	}
	names := map[string][]string{}
	var heading, examples string
	for _, line := range strings.Split(s[start+4:start+4+end], "\n") {
		switch {
		case strings.HasPrefix(line, "examples/"):
			examples = line
		case line != "" && line[0] != ' ':
			heading = strings.Fields(line)[0]
		case strings.HasPrefix(line, "  ") && len(line) > 2 && line[2] != ' ':
			col, _, _ := strings.Cut(strings.TrimSpace(line), "  ")
			for _, name := range strings.Split(col, ",") {
				names[heading] = append(names[heading], strings.TrimSpace(name))
			}
		}
	}
	return names, examples
}

// TestModuleMapsAreWhole: README's Architecture block and DESIGN.md §3
// each name every package under internal/ and every command under
// cmd/; README's block names no package that is not there and counts
// the runnable examples there are, and its Examples table names every
// directory under examples/.
func TestModuleMapsAreWhole(t *testing.T) {
	readme, examples := readmeArchitecture(t)
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range dirs(t, "examples", false) {
		if !strings.Contains(string(b), "| `examples/"+name+"` |") {
			t.Errorf("README's Examples table has no row for examples/%s", name)
		}
	}
	b, err = os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design := string(b)
	at := strings.Index(design, "## 3. ")
	end := strings.Index(design[at+1:], "\n## ")
	if at < 0 || end < 0 {
		t.Fatal("DESIGN.md has no §3")
	}
	design = design[at : at+1+end]

	for _, parent := range []string{"internal", "cmd"} {
		have := dirs(t, parent, false)
		listed := readme[parent+"/"]
		for _, name := range have {
			if !strings.Contains(design, "`"+parent+"/"+name+"`") {
				t.Errorf("DESIGN.md §3 has no row for %s/%s", parent, name)
			}
			if !slices.Contains(listed, name) {
				t.Errorf("README's Architecture block does not list %s/%s", parent, name)
			}
		}
		for _, name := range listed {
			if _, err := os.Stat(filepath.Join(parent, name)); err != nil {
				t.Errorf("README's Architecture block lists %s/%s, which is not there", parent, name)
			}
		}
	}
	if want := fmt.Sprintf("%d runnable examples", len(dirs(t, "examples", true))); !strings.Contains(examples, want) {
		t.Errorf("README's Architecture block says %q, want %q", strings.TrimSpace(examples), want)
	}
}
