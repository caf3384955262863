package models

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// defaulted returns the zero C after its defaults() method.
func defaulted[C any, P interface {
	*C
	defaults()
}]() C {
	var c C
	P(&c).defaults()
	return c
}

// defaultComment matches a field comment's "(default X)" or "(default X,
// note)".
var defaultComment = regexp.MustCompile(`\(default (\{[^}]*\}|[^,)]*)`)

// TestConfigDefaultsMatchComments holds every "(default X)" a config field's
// comment states, in the package's non-test files, to what the config's
// defaults() gives the field of a zero config. X is written as Go prints the
// value, with a slice in braces: {48, 96, 128}.
func TestConfigDefaultsMatchComments(t *testing.T) {
	configs := map[string]any{
		"ARGAConfig":  defaulted[ARGAConfig](),
		"DGCNConfig":  defaulted[DGCNConfig](),
		"DNNConfig":   defaulted[DNNConfig](),
		"GWConfig":    defaulted[GWConfig](),
		"KGNNConfig":  defaulted[KGNNConfig](),
		"PSAGEConfig": defaulted[PSAGEConfig](),
		"STGCNConfig": defaulted[STGCNConfig](),
		"TLSTMConfig": defaulted[TLSTMConfig](),
	}
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset, checked := token.NewFileSet(), 0
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			spec, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := spec.Type.(*ast.StructType)
			if !ok {
				return false
			}
			for _, f := range st.Fields.List {
				var text string
				for _, g := range []*ast.CommentGroup{f.Doc, f.Comment} {
					text += g.Text()
				}
				m := defaultComment.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				cfg, ok := configs[spec.Name.Name]
				if !ok {
					t.Errorf("%s: %s states defaults but has no defaults() in this test's table", fset.Position(f.Pos()), spec.Name.Name)
					return false
				}
				want := strings.NewReplacer("{", "[", "}", "]", ",", "").Replace(m[1])
				for _, name := range f.Names {
					checked++
					if got := fmt.Sprint(reflect.ValueOf(cfg).FieldByName(name.Name).Interface()); got != want {
						t.Errorf("%s: %s.%s says (default %s), defaults() gives %s",
							fset.Position(name.Pos()), spec.Name.Name, name.Name, m[1], got)
					}
				}
			}
			return false
		})
	}
	if checked == 0 {
		t.Fatal("no (default X) comment found")
	}
}
