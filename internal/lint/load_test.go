package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadModuleSkipsNestedModules: a directory below the root with its
// own go.mod is a separate module, which `go build ./...` skips, so the
// loader must skip it too.
func TestLoadModuleSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":              "module example\n",
		"a/a.go":              "package a\n",
		"nested/go.mod":       "module example/nested\n",
		"nested/n.go":         "package nested\n",
		"nested/inner/i.go":   "package inner\n",
		"a/deeper/go.mod":     "module example/a/deeper\n",
		"a/deeper/d.go":       "package deeper\n",
		"notmodule/notmod.go": "package notmodule\n",
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := NewLoader().LoadModule(root, "example")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.Path)
	}
	want := []string{"example/a", "example/notmodule"}
	if len(got) != len(want) {
		t.Fatalf("loaded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("loaded %v, want %v", got, want)
		}
	}
}
