package twigbench

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocsNameLiveIdentifiers keeps README.md, DESIGN.md and
// EXPERIMENTS.md describing the tree that exists: every backticked Go
// identifier (Ident, pkg.Ident, Type.Method), command-line flag and file
// path they use must be findable in the tree's non-Markdown files. A
// section headed "History" is exempt — that is where a document may name
// what is gone. benchmark/README.md is out of scope until the next
// benchmark PR repairs it.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	tr := loadTree(t)
	total := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		spans := docSpans(t, doc)
		if len(spans) == 0 {
			t.Errorf("%s: no backticked name found; is the scanner broken?", doc)
		}
		total += len(spans)
		for _, s := range spans {
			if why := tr.stale(s.text); why != "" {
				t.Errorf("%s:%d: `%s`: %s (fix the text, or move it under a heading that says History)", doc, s.line, s.text, why)
			}
		}
	}
	if total < 300 {
		t.Errorf("only %d names checked across the three documents", total)
	}
}

// designBudget is DESIGN.md's contract with every session that has to
// read it before writing code: what the system is, in this many lines.
// A PR that needs more room for something new makes it by cutting what
// the document no longer needs, not by raising this.
const designBudget = 900

func TestDesignWithinBudget(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n > designBudget {
		t.Errorf("DESIGN.md is %d lines, over its %d-line budget by %d", n, designBudget, n-designBudget)
	}
}

type span struct {
	text string
	line int
}

var (
	headingRE = regexp.MustCompile(`^(#+)\s+(.*)$`)
	historyRE = regexp.MustCompile(`\bHistory\b`)
	inlineRE  = regexp.MustCompile("`([^`]+)`")
	spaceRE   = regexp.MustCompile(`\s+`)
)

// docSpans returns the inline code spans of a Markdown file, and each
// line of its fenced blocks as one span, leaving out every section whose
// heading contains the word History (down to the next heading of the
// same or a higher level).
func docSpans(t *testing.T, name string) []span {
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	var out []span
	fenced, historyLevel := false, 0
	for i, ln := range lines {
		if m := headingRE.FindStringSubmatch(ln); m != nil && !fenced {
			if historyLevel > 0 && len(m[1]) <= historyLevel {
				historyLevel = 0
			}
			if historyLevel == 0 && historyRE.MatchString(m[2]) {
				historyLevel = len(m[1])
			}
		}
		isFence := strings.HasPrefix(strings.TrimSpace(ln), "```")
		if isFence {
			fenced = !fenced
		}
		switch {
		case historyLevel > 0 || isFence:
			lines[i] = ""
		case fenced:
			if n := len(out); n > 0 && strings.HasSuffix(out[n-1].text, "\\") { // a continued command
				out[n-1].text = strings.TrimSuffix(out[n-1].text, "\\") + strings.TrimSpace(ln)
			} else {
				out = append(out, span{strings.TrimSpace(ln), i + 1})
			}
			lines[i] = ""
		}
	}
	// Inline spans may wrap across lines of one paragraph.
	text := strings.Join(lines, "\n")
	for _, m := range inlineRE.FindAllStringSubmatchIndex(text, -1) {
		s := text[m[2]:m[3]]
		if strings.Contains(s, "\n\n") {
			t.Errorf("%s:%d: unpaired backtick", name, 1+strings.Count(text[:m[0]], "\n"))
			continue
		}
		out = append(out, span{spaceRE.ReplaceAllString(strings.TrimSpace(s), " "), 1 + strings.Count(text[:m[0]], "\n")})
	}
	return out
}

// tree is what the documents are checked against.
type tree struct {
	text  string                     // every non-Markdown text file but CI's workflow
	ci    string                     // the workflow: job names count, its "stay deleted" greps must not
	words map[string]bool            // every identifier-shaped word in text
	paths []string                   // every file and directory, repo-relative
	decls map[string]map[string]bool // package or type name → names declared in or on it
	alias map[string]string          // type name → the type it is declared as (type A = pkg.B, type A B)
	flags map[string]map[string]bool // "cmd/<name>" or "benchmark" → flags it registers
}

var (
	wordRE     = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	flagDeclRE = regexp.MustCompile(`\b(?:fs|flag)\.\w+\((?:&[\w.]+, )?"([a-z][a-z0-9-]*)"`)
	textExt    = map[string]bool{".go": true, ".s": true, ".sh": true, ".yml": true, ".json": true, ".mod": true, ".golden": true}
)

func loadTree(t *testing.T) *tree {
	tr := &tree{words: map[string]bool{}, decls: map[string]map[string]bool{}, alias: map[string]string{}, flags: map[string]map[string]bool{}}
	var text, ci strings.Builder
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." && d.Name() != ".github" {
			return filepath.SkipDir // .git, .bench_build, .claude
		}
		tr.paths = append(tr.paths, p)
		if d.IsDir() || !textExt[path.Ext(p)] {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if path.Ext(p) == ".yml" {
			ci.Write(data)
			return nil
		}
		text.Write(data)
		text.WriteByte('\n')
		if path.Ext(p) != ".go" {
			return nil
		}
		dir := path.Dir(p)
		if strings.HasPrefix(dir, "cmd/") || dir == "benchmark" {
			for _, m := range flagDeclRE.FindAllSubmatch(data, -1) {
				tr.declare(tr.flags, dir, string(m[1]))
			}
		}
		f, err := parser.ParseFile(fset, p, data, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		tr.index(f, path.Base(dir))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.text, tr.ci = text.String(), ci.String()
	for _, w := range wordRE.FindAllString(tr.text, -1) {
		tr.words[w] = true
	}
	return tr
}

func (tr *tree) declare(in map[string]map[string]bool, owner, name string) {
	if in[owner] == nil {
		in[owner] = map[string]bool{}
	}
	in[owner][name] = true
}

// index records what a file declares: top-level names under its package
// (by package clause and by directory), methods, fields and interface
// methods under their type, and what a type is declared as.
func (tr *tree) index(f *ast.File, dir string) {
	topLevel := func(name string) {
		tr.declare(tr.decls, f.Name.Name, name)
		tr.declare(tr.decls, dir, name)
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				topLevel(decl.Name.Name)
			} else if recv := typeName(decl.Recv.List[0].Type); recv != "" {
				tr.declare(tr.decls, recv, decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						topLevel(n.Name)
					}
				case *ast.TypeSpec:
					topLevel(spec.Name.Name)
					var members *ast.FieldList
					switch typ := spec.Type.(type) {
					case *ast.StructType:
						members = typ.Fields
					case *ast.InterfaceType:
						members = typ.Methods
					case *ast.SelectorExpr:
						tr.alias[spec.Name.Name] = typ.Sel.Name
					case *ast.Ident:
						tr.alias[spec.Name.Name] = typ.Name
					}
					if members != nil {
						for _, field := range members.List {
							for _, n := range field.Names {
								tr.declare(tr.decls, spec.Name.Name, n.Name)
							}
						}
					}
				}
			}
		}
	}
}

func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

var (
	hashRE   = regexp.MustCompile(`^[0-9a-f]{7,40}$`)
	callRE   = regexp.MustCompile(`^([A-Za-z_][\w.]*)\(.*\)$`)
	flagRE   = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)(=.*)?$`)
	identRE  = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\*?$`)
	hyphenRE = regexp.MustCompile(`^[A-Za-z][\w-]*$`)
	fileRE   = regexp.MustCompile(`\.(go|s|sh|yml|json|md|mod|golden)$`)
	testFnRE = regexp.MustCompile(`^(Test|Benchmark|Fuzz)\w+$`)
	// Flags of the go tool that the documents name on their own.
	goToolFlags = map[string]bool{"benchtime": true, "cpu": true}
)

// stale says why a code span names something the tree does not have, or
// returns "" when it names something that exists or nothing checkable
// (prose, formulae, placeholders, URLs, values with punctuation).
func (tr *tree) stale(s string) string {
	if m := callRE.FindStringSubmatch(s); m != nil {
		s = m[1] // Ident(args): the callee
	}
	if strings.Contains(s, " ") {
		return tr.staleCommand(strings.Fields(s))
	}
	s = strings.TrimSuffix(s, ":")
	for _, cut := range []string{"{", "="} { // metric{labels}, VAR=value
		if i := strings.Index(s, cut); i > 0 {
			s = s[:i]
		}
	}
	switch {
	case hashRE.MatchString(s) && strings.ContainsAny(s, "0123456789"):
		return "" // a commit
	case flagRE.MatchString(s):
		return tr.staleFlag(s, "")
	case strings.HasPrefix(s, "/") || strings.ContainsAny(s, "<>…%$"):
		return "" // an HTTP route, a placeholder
	case strings.Contains(s, "/") || fileRE.MatchString(s):
		return tr.stalePath(s)
	case identRE.MatchString(s):
		return tr.staleIdent(s)
	case hyphenRE.MatchString(s) && !strings.Contains(tr.text, s) && !strings.Contains(tr.ci, s):
		return "appears in no non-Markdown file"
	}
	return ""
}

func (tr *tree) staleIdent(s string) string {
	if prefix, ok := strings.CutSuffix(s, "*"); ok {
		for w := range tr.words {
			if strings.HasPrefix(w, prefix) {
				return ""
			}
		}
		return "no identifier in the tree starts with this"
	}
	parts := strings.Split(s, ".")
	if len(parts) == 1 {
		if !tr.words[s] {
			return "appears in no non-Markdown file"
		}
		return ""
	}
	if strings.Contains(tr.text, s) {
		return ""
	}
	for i := 1; i < len(parts); i++ { // every owner.member link must be declared
		if !tr.declared(parts[i-1], parts[i]) {
			return fmt.Sprintf("%s declares no %s", parts[i-1], parts[i])
		}
	}
	return ""
}

// declared reports whether owner (a package or a type) declares member,
// looking through `type A = pkg.B` and `type A B`.
func (tr *tree) declared(owner, member string) bool {
	for hops := 0; hops < 4; hops++ {
		if tr.decls[owner][member] {
			return true
		}
		next, ok := tr.alias[owner]
		if !ok {
			return false
		}
		owner = next
	}
	return false
}

// stalePath checks a span that looks like a file path: one that starts at
// a top-level entry of the walked tree (build output under a dot
// directory is nobody's to check), crosses a testdata directory or ends in a source
// extension must be the tail of some path in the tree (`*` matches within
// one component). A slash-separated benchmark or test name is checked by
// its function.
func (tr *tree) stalePath(s string) string {
	s = strings.TrimSuffix(strings.TrimPrefix(s, "./"), "/")
	if s == "" || s == "..." || strings.ContainsAny(s, "{}") {
		return ""
	}
	s = strings.TrimSuffix(s, "/...")
	comps := strings.Split(s, "/")
	isPath := slices.Contains(tr.paths, comps[0]) || fileRE.MatchString(s)
	for _, c := range comps {
		isPath = isPath || c == "testdata"
	}
	if !isPath {
		if testFnRE.MatchString(comps[0]) && !tr.words[comps[0]] {
			return "no such test or benchmark function"
		}
		return ""
	}
	for _, p := range tr.paths {
		tail := strings.Split(p, "/")
		if len(tail) < len(comps) {
			continue
		}
		if ok, _ := path.Match(s, strings.Join(tail[len(tail)-len(comps):], "/")); ok {
			return ""
		}
	}
	return "no such file or directory in the tree"
}

// staleFlag checks one -flag: against the binary that the command names
// (a directory under cmd/, or benchmark), or, with no binary in sight,
// against every binary's flags and the go tool's.
func (tr *tree) staleFlag(tok, binary string) string {
	name := flagRE.FindStringSubmatch(tok)[1]
	if binary != "" {
		if !tr.flags[binary][name] {
			return fmt.Sprintf("%s registers no flag -%s", binary, name)
		}
		return ""
	}
	if goToolFlags[name] {
		return ""
	}
	for _, set := range tr.flags {
		if set[name] {
			return ""
		}
	}
	return fmt.Sprintf("no binary under cmd/ or benchmark registers a flag -%s", name)
}

// staleCommand checks a command line: the flags that follow a binary of
// this repository (up to the next pipe), the flags of a span that is
// nothing but flags and their values, and every ./relative path.
func (tr *tree) staleCommand(toks []string) string {
	binary, bare := "", flagRE.MatchString(toks[0])
	for _, tok := range toks {
		tok = strings.Trim(tok, `'"`)
		switch base := path.Base(strings.TrimSuffix(tok, "/")); {
		case tok == "|" || tok == "&&" || tok == ";":
			binary = ""
		case tr.flags["cmd/"+base] != nil:
			binary = "cmd/" + base
		case tok == "benchmark/run.sh" || tok == "./benchmark":
			binary = "benchmark"
		case flagRE.MatchString(tok) && (binary != "" || bare):
			if why := tr.staleFlag(tok, binary); why != "" {
				return why
			}
		case strings.HasPrefix(tok, "./") && !strings.ContainsAny(tok, "<>*"):
			if why := tr.stalePath(tok); why != "" {
				return tok + ": " + why
			}
		}
	}
	return ""
}
