package twigbench

import (
	"fmt"
	"go/ast"
	"path"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestContracts holds the tree to what it promises stays deleted or
// single. Each subtest is one contract: identifiers, imports,
// declarations and environment or flag reads that must not come back,
// checked on the syntax trees loadTree parses for the documentation
// test — so comments and strings do not count — and, in assembly, word
// by word. A regrown path fails `go test ./...`, not only CI. What needs
// git stays in CI: the comparison of checkpoint.Version with the
// merge-base's.
func TestContracts(t *testing.T) {
	tr := loadTree(t)
	for _, c := range contracts {
		t.Run(c.name, func(t *testing.T) {
			for _, v := range c.violations(tr) {
				t.Errorf("%s (%s)", v, c.why)
			}
		})
	}
}

var contracts = []contract{
	{
		name: "one-exact-path",
		why:  "the per-element zero-skip tiles, the one-panel AVX-512 tile, the fused GEMM kernels, -fast and the row fan-out stay deleted; the GEMM tiles never fuse (exp_amd64.s does, because archExp does)",
		clauses: []clause{
			{scope{dirs: []string{"internal/mat"}}, []rule{idents("kern4x8s", "kern4x8sF", "kern8x8sZ", "kern8x8")}},
			{scope{}, []rule{
				idents("kern4x8nF", "kern8x8nZ", "kernRowPanelsSF", "SetFastMath", "parallelRows", "ParallelFlopThreshold"),
				qualified("mat", "SetParallelism"),
			}},
		},
		asm: []asmClause{
			{"internal/mat/gemm_amd64.s", regexp.MustCompile(`\b(kern4x8sF?|kern8x8sZ|kern8x8)\b|VFMADD`)},
			{"*.s", regexp.MustCompile(`\b(kern4x8nF|kern8x8nZ|kernRowPanelsSF|SetFastMath|parallelRows|ParallelFlopThreshold)\b`)},
		},
	},
	{
		name: "three-products",
		why: `internal/mat's product code is the learner's three products — MulPackedBiasAct, MulTransALive, MulTransBPacked — on the tiles at every row count (DESIGN.md §7): ` +
			"the row-major-B products and packing, the streaming paths and their row gate, a group's raw operand and mat's test-only exports stay deleted, and the naive kernels live in tests only",
		clauses: []clause{
			{scope{dirs: []string{"internal/mat"}}, []rule{idents(
				"MulBiasAct", "MulTransBLive", "transBOperand", "mulTransB", "packBT", "finiteIn", "minPackRows",
				"mulPackedInto", "mulTransAPacked", "biasActRange", "groupShape", "groupPanels",
				"mulRange", "mulTransARange", "mulTransBRange",
				"FromRows", "AddScaled", "MaxAbs", "HaveAVX2", "Unpack")}},
			{scope{dirs: []string{"internal/mat"}, prod: true}, []rule{
				idents("naiveMul", "naiveMulTransA", "naiveMulTransB", "naiveBiasAct"),
				structFields("Group", "B"),
			}},
		},
	},
	{
		name: "live-block-only",
		why:  `the backward products do only their live × live arithmetic (DESIGN.md, "The training step and its kernel tiers"): dW reads its operand where it lies, so the gathered copy of its columns stays deleted`,
		clauses: []clause{
			{scope{dirs: []string{"internal/mat"}}, []rule{idents("gatherColumns")}},
		},
	},
	{
		name: "one-backward-sweep",
		why:  `a dense layer's backward reads its incoming gradient once (DESIGN.md, "The training step and its kernel tiers"): mat.SweepGrad masks, scales, sums, scans and packs it, so the separate mask and column-sum passes stay deleted`,
		clauses: []clause{
			{scope{dirs: []string{"internal/mat", "internal/nn", "internal/bdq"}}, []rule{idents("maskReLUGrad", "ColSumsInto")}},
		},
	},
	{
		name: "gating-by-owner",
		why:  `gating is declared by the network's owner, from its structure (DESIGN.md, "The training step and its kernel tiers"): no config field, flag or environment variable sets or reads GatedInput, and only internal/nn and internal/bdq name it outside tests`,
		clauses: []clause{
			{scope{prod: true, except: []string{"internal/nn/", "internal/bdq/"}}, []rule{idents("GatedInput")}},
			{scope{prod: true}, []rule{gatingFromConfig}},
			{scope{prod: true, except: []string{"internal/nn/layers.go"}}, []rule{boolFields("GatedInput", "InputGated", "Gated", "Gating")}},
		},
	},
	{
		name: "one-interval-kernel",
		why:  "the recover wrappers, the fallback mapping and the control loops' sim.Server.Step live in internal/ctrl only",
		clauses: []clause{
			{scope{except: []string{"internal/ctrl/"}}, []rule{funcs("safeDecide", "safeAssignment", "safePrepare", "safeFinish")}},
			{scope{dirs: []string{"internal/experiments", "internal/daemon", "internal/cluster"}, prod: true}, []rule{srvSteps}},
		},
	},
	{
		name: "one-training-step",
		why:  "every agent trains and selects through its own forward, pooled or not: the stacked replica of Forward/Backward/Adam, its grouped backward products, the flat Adam pass, the parameter arena and the pool's grouped selection engine and per-architecture registry stay deleted",
		clauses: []clause{
			{scope{prod: true}, []rule{
				idents("stackedTrainForward", "stackedBackward", "groupedDenseBackward", "MulGroupedTrans", "StepAndZeroGradFlat", "NewArena",
					"netPack", "newNetPack", "stackWS", "stackWorkspace", "stackedEval", "refreshLayerGroups", "dropLayerGroups",
					"lgGroups", "lgFor", "lgEpochs", "selScratch", "takeRow", "selectSingle", "selectOneLocked", "actsBuf", "actsFlip",
					"applyExploration", "specEqual", "allPacked"),
				qualified("nn", "Arena"),
			}},
		},
	},
	{
		name: "one-adam-kernel",
		why:  "the three-division kernel stays deleted (its divisions live on as the new kernel's per-vector fallback, not as a second path), and nothing but mat's TWIG_DISABLE_AVX2 reaches the dispatch: no environment read, flag, config field or CPUID probe in internal/nn (mat.HaveFMA is the one FMA probe)",
		clauses: []clause{
			{scope{}, []rule{idents("adamStepAVX2")}},
			{scope{dirs: []string{"internal/nn"}, prod: true}, []rule{envReads, configReads}},
		},
		asm: []asmClause{
			{"*.s", regexp.MustCompile(`\badamStepAVX2\b`)},
			{"internal/nn/*.s", regexp.MustCompile(`CPUID`)},
		},
	},
	{
		name: "one-weight-copy",
		why:  `every weight tensor lives in its packed panels and nowhere else (DESIGN.md §7): no row-major copy beside them, so none of the machinery that kept the two in step — the repack, the stale flag and its setter, the lazy refresh — comes back`,
		clauses: []clause{
			{scope{}, []rule{idents("RefreshPack", "ensurePacks", "noteWeightsChanged", "stalePacks")}},
		},
		asm: []asmClause{
			{"*.s", regexp.MustCompile(`\b(RefreshPack|ensurePacks|noteWeightsChanged|stalePacks)\b`)},
		},
	},
	{
		name: "one-training-path",
		why: `every network trains through its layers' Backward, which hands each gradient to the optimiser as it computes it (DESIGN.md §7): no production code outside benchmark/ steps Adam over Grad, clears or reads a Grad, and the fused step-and-clear and the product that accumulated dW into Grad stay deleted — ` +
			"Param.Grad, ZeroGrad and Adam.Step stay only for the benchmark's layer probes, and only their own definitions touch them",
		clauses: []clause{
			{scope{}, []rule{idents("StepAndZeroGrad", "MulTransAAcc", "mulTransAAccRange")}},
			{scope{prod: true, except: []string{"benchmark/"}}, []rule{gradientBypass}},
		},
	},
	{
		name: "no-unset-learner-knobs",
		why:  `the learner has no knob that no driver sets (DESIGN.md §17, "Hyper-parameters"): pure exploitation after a step count and global gradient-norm clipping stay deleted`,
		clauses: []clause{
			{scope{}, []rule{idents("PureExploitAfter", "MaxGradNorm", "clipGlobalNorm")}},
		},
	},
	{
		name: "no-test-only-knobs",
		why:  `the control plane has no knob that only its tests set (DESIGN.md §10–§12): the guard's staleness, pessimism and breaker settings, the fleet's lease, backoff, snapshot and estate timings, and the daemon's retry budget and drain timeout are constants, and pmcselect, powermodel and twig-experiments' -fig, which repeated -experiment, stay deleted`,
		clauses: []clause{
			{scope{dirs: []string{"internal/ctrl"}, prod: true}, []rule{structFields("GuardConfig", "MaxStaleS", "PessimismFactor", "BreakerK", "BreakerResetR")}},
			{scope{dirs: []string{"internal/cluster"}, prod: true}, []rule{structFields("Config", "LeaseTTL", "BackoffBase", "SnapshotEvery", "EstateGraceS")}},
			{scope{dirs: []string{"internal/daemon"}, prod: true}, []rule{structFields("Config", "MaxRetries", "DrainTimeoutS")}},
		},
		whole: func(tr *tree) (out []string) {
			for _, p := range tr.paths {
				if p == "cmd/pmcselect" || p == "cmd/powermodel" {
					out = append(out, p+": exists")
				}
			}
			if tr.flags["cmd/twig-experiments"]["fig"] {
				out = append(out, "cmd/twig-experiments: registers -fig")
			}
			return out
		},
	},
	{
		name: "no-test-only-exports",
		why: `an export no production code calls stays deleted: platform's ServiceCores, the allocating twin of AppendServiceCores that tests call with a nil destination, ` +
			"platform's StepForFreq, Frequencies and Config.NumFreqStepsFor, bdq's FlatDQN.NumActions, loadgen's StepWise.Levels, and nn's NewReLU and Adam.StepCount; " +
			"their tests read the field, build &ReLU{} or keep the oracle unexported (platform_test.go's stepForFreq)",
		clauses: []clause{
			{scope{}, []rule{idents("ServiceCores"), qualified("platform", "StepForFreq", "Frequencies"), qualified("nn", "NewReLU")}},
			{scope{dirs: []string{"internal/sim/platform"}, prod: true}, []rule{idents("NumFreqStepsFor")}},
			{scope{dirs: []string{"internal/bdq"}, prod: true}, []rule{idents("NumActions")}},
			{scope{dirs: []string{"internal/sim/loadgen"}, prod: true}, []rule{idents("Levels")}},
			{scope{dirs: []string{"internal/nn"}, prod: true}, []rule{idents("StepCount")}},
		},
	},
	{
		name: "one-manager-constructor",
		why:  `every figure, ablation and extension builds its managers through experiments.newController (DESIGN.md §4): no other production file of internal/experiments constructs a baseline — pairs.go's feasibility sweep keeps its static — and the per-figure constructors stay deleted`,
		clauses: []clause{
			{scope{dirs: []string{"internal/experiments"}, prod: true, except: []string{"internal/experiments/setup.go", "internal/experiments/pairs.go"}}, []rule{
				qualified("baselines", "NewStatic", "NewHeracles", "NewHipster", "NewParties"),
			}},
			{scope{dirs: []string{"internal/experiments/pairs.go"}}, []rule{qualified("baselines", "NewHeracles", "NewHipster", "NewParties")}},
			{scope{}, []rule{idents("newSingleManager", "scenManager", "newScenTwig")}},
		},
	},
	{
		name: "one-measurement-system",
		why:  "twig-bench, its baseline files, the dispatch mirror it reported, the unpooled fleet factory and the gob weight file stay deleted",
		clauses: []clause{
			{scope{}, []rule{
				idents("MulDispatch", "DispatchInfo", "MinPackRows", "FleetFactory"),
				imports("encoding/gob"),
				qualified("nn", "Save", "Load", "Snapshot", "Restore"),
			}},
		},
		whole: func(tr *tree) (out []string) {
			for _, p := range tr.paths {
				if ok, _ := path.Match("BENCH_PR*.json", p); ok || p == "cmd/twig-bench" {
					out = append(out, p+": exists")
				}
			}
			return out
		},
	},
	{
		name: "one-codec",
		why: "internal/checkpoint stores through encoding/binary (no unsafe cast, no environment switch), and its slice methods hold no per-element e.F64/e.Int/e.Bool loop; " +
			"every list count is bounded by Decoder.Count, so no production file outside internal/checkpoint reads a Decoder's Remaining() — " +
			"except replay's decodeTransitions, whose slab pre-sizing caps a capacity hint (never a count) by the float64s the payload has left",
		clauses: []clause{
			{scope{dirs: []string{"internal/checkpoint"}}, []rule{imports("unsafe"), envReads}},
			{scope{dirs: []string{"internal/checkpoint/format.go"}}, []rule{elementLoops}},
			{scope{prod: true, except: []string{"internal/checkpoint/", "internal/replay/checkpoint.go"}}, []rule{calls("Remaining")}},
			{scope{dirs: []string{"internal/replay/checkpoint.go"}}, []rule{calls("Remaining", "decodeTransitions")}},
		},
	},
	{
		name: "one-sort",
		why:  "internal/sim/service reads no environment variable or flag, and RunInterval has one sort entry point (sortRun, whose general case is slices.Sort), not a second path to switch to; its requests' work goes through mat.Exp only (no math.Exp outside tests), and internal/rng owns its generator (no rand.Source field) and reads no environment",
		clauses: []clause{
			{scope{dirs: []string{"internal/sim/service"}, prod: true}, []rule{envReads, imports("os"), qualified("math", "Exp")}},
			{scope{dirs: []string{"internal/rng"}, prod: true}, []rule{envReads, imports("os"), fieldsOf("rand", "Source")}},
		},
		whole: oneSortCall,
	},
}

// A contract is rules over the Go files of some scopes, forbidden
// patterns in assembly, and checks over the whole tree.
type contract struct {
	name, why string
	clauses   []clause
	asm       []asmClause
	whole     func(*tree) []string
}

type clause struct {
	in    scope
	rules []rule
}

// scope selects Go files: under one of dirs (a directory or a file; none
// means the whole tree), without tests when prod is set, and not under a
// path that starts with an entry of except.
type scope struct {
	dirs   []string
	prod   bool
	except []string
}

func (s scope) has(p string) bool {
	if s.prod && strings.HasSuffix(p, "_test.go") {
		return false
	}
	for _, e := range s.except {
		if strings.HasPrefix(p, e) {
			return false
		}
	}
	return len(s.dirs) == 0 || slices.ContainsFunc(s.dirs, func(d string) bool { return p == d || strings.HasPrefix(p, d+"/") })
}

// asmClause forbids a pattern on any line of the assembly files that
// files matches (a pattern without a slash matches the base name).
type asmClause struct {
	files string
	re    *regexp.Regexp
}

// A rule reports what it finds in one file, node by node.
type rule func(f *ast.File, report func(n ast.Node, what string))

func (c contract) violations(tr *tree) []string {
	var out []string
	for _, cl := range c.clauses {
		for _, gf := range tr.goFiles {
			if !cl.in.has(gf.path) {
				continue
			}
			report := func(n ast.Node, what string) {
				out = append(out, fmt.Sprintf("%s:%d: %s", gf.path, tr.fset.Position(n.Pos()).Line, what))
			}
			for _, r := range cl.rules {
				r(gf.f, report)
			}
		}
	}
	for _, a := range c.asm {
		for p, text := range tr.asm {
			name := p
			if !strings.Contains(a.files, "/") {
				name = path.Base(p)
			}
			if ok, _ := path.Match(a.files, name); !ok {
				continue
			}
			for i, line := range strings.Split(text, "\n") {
				if m := a.re.FindString(line); m != "" {
					out = append(out, fmt.Sprintf("%s:%d: %s", p, i+1, m))
				}
			}
		}
	}
	if c.whole != nil {
		out = append(out, c.whole(tr)...)
	}
	return out
}

// idents forbids identifiers by name wherever they stand: a declaration,
// a use, a field, a selector.
func idents(names ...string) rule {
	return func(f *ast.File, report func(ast.Node, string)) {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && slices.Contains(names, id.Name) {
				report(id, id.Name)
			}
			return true
		})
	}
}

// qualified forbids pkg.Name for each name: as a selector anywhere, and
// as a top-level declaration of a package named pkg.
func qualified(pkg string, names ...string) rule {
	return func(f *ast.File, report func(ast.Node, string)) {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && isIdent(sel.X, pkg) && slices.Contains(names, sel.Sel.Name) {
				report(sel, pkg+"."+sel.Sel.Name)
			}
			return true
		})
		if f.Name.Name != pkg {
			return
		}
		for _, decl := range f.Decls {
			var ids []*ast.Ident
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					ids = append(ids, decl.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						ids = append(ids, spec.Names...)
					case *ast.TypeSpec:
						ids = append(ids, spec.Name)
					}
				}
			}
			for _, id := range ids {
				if slices.Contains(names, id.Name) {
					report(id, pkg+"."+id.Name+" declared")
				}
			}
		}
	}
}

// imports forbids import paths.
func imports(paths ...string) rule {
	return func(f *ast.File, report func(ast.Node, string)) {
		for _, im := range f.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); slices.Contains(paths, p) {
				report(im, "imports "+im.Path.Value)
			}
		}
	}
}

// funcs forbids function and method declarations by name.
func funcs(names ...string) rule {
	return func(f *ast.File, report func(ast.Node, string)) {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && slices.Contains(names, fd.Name.Name) {
				report(fd, "func "+fd.Name.Name)
			}
		}
	}
}

// calls forbids calling name — a function, or a method whatever it is
// called on — outside the bodies of the functions named in except.
func calls(name string, except ...string) rule {
	return func(f *ast.File, report func(ast.Node, string)) {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && slices.Contains(except, fd.Name.Name) {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && lastName(call.Fun) == name {
					report(call, name+"()")
				}
				return true
			})
		}
	}
}

// gradientBypass forbids training beside the per-layer step: a call of
// ZeroGrad, an Adam step over Grad (a method Step of one argument; no
// other Step takes one) and a read of a Grad field — outside the bodies
// of ZeroGrad and grad, which are that field's own.
func gradientBypass(f *ast.File, report func(ast.Node, string)) {
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && (fd.Name.Name == "ZeroGrad" || fd.Name.Name == "grad") {
			continue
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "ZeroGrad" || sel.Sel.Name == "Step" && len(n.Args) == 1) {
					report(n, lastName(sel.X)+"."+sel.Sel.Name+"()")
				}
			case *ast.SelectorExpr:
				if n.Sel.Name == "Grad" {
					report(n, "reads "+lastName(n.X)+".Grad")
				}
			}
			return true
		})
	}
}

// envReads forbids reading the environment or the command line.
func envReads(f *ast.File, report func(ast.Node, string)) {
	qualified("os", "Getenv", "LookupEnv", "Environ")(f, report)
	imports("flag")(f, report)
}

// configRE matches the last name of an operand that is a configuration.
var configRE = regexp.MustCompile(`(cfg|Cfg|config|Config)$`)

// configReads forbids selecting through a configuration.
func configReads(f *ast.File, report func(ast.Node, string)) {
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && configRE.MatchString(lastName(sel.X)) {
			report(sel, "reads "+lastName(sel.X)+"."+sel.Sel.Name)
		}
		return true
	})
}

// gatingFromConfig forbids an assignment or a composite-literal field
// that ties GatedInput or InputGated to the environment, a flag or a
// configuration, in either direction.
func gatingFromConfig(f *ast.File, report func(ast.Node, string)) {
	gating := func(n ast.Node) bool { return mentions(n, "GatedInput", "InputGated") }
	tied := func(n ast.Node, lhs, rhs []ast.Expr) {
		for _, l := range lhs {
			for _, r := range rhs {
				if gating(l) && fromConfig(r) || fromConfig(l) && gating(r) {
					report(n, "gating tied to a configuration")
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			tied(n, n.Lhs, n.Rhs)
		case *ast.KeyValueExpr:
			tied(n, []ast.Expr{n.Key}, []ast.Expr{n.Value})
		}
		return true
	})
}

// fromConfig reports whether an expression reads the environment, a flag
// or a configuration (a cfg, a Config, a Scale, an sc).
func fromConfig(e ast.Node) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			x := lastName(sel.X)
			found = found || x == "flag" || x == "os" && slices.Contains([]string{"Getenv", "LookupEnv", "Environ"}, sel.Sel.Name) ||
				configRE.MatchString(x) || strings.HasSuffix(x, "sc") || x == "Scale"
		}
		return !found
	})
	return found
}

// boolFields forbids bool fields (and parameters) by name.
func boolFields(names ...string) rule {
	return func(f *ast.File, report func(ast.Node, string)) {
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.Field); ok && isIdent(fl.Type, "bool") {
				for _, id := range fl.Names {
					if slices.Contains(names, id.Name) {
						report(id, id.Name+" bool")
					}
				}
			}
			return true
		})
	}
}

// structFields forbids fields by name in the declaration of struct typ.
func structFields(typ string, names ...string) rule {
	return func(f *ast.File, report func(ast.Node, string)) {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != typ {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if slices.Contains(names, id.Name) {
							report(id, typ+"."+id.Name+" field")
						}
					}
				}
			}
			return false
		})
	}
}

// fieldsOf forbids named fields (and parameters) of type pkg.typ.
func fieldsOf(pkg, typ string) rule {
	return func(f *ast.File, report func(ast.Node, string)) {
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.Field); ok && len(fl.Names) > 0 {
				if sel, ok := fl.Type.(*ast.SelectorExpr); ok && isIdent(sel.X, pkg) && sel.Sel.Name == typ {
					report(fl, fl.Names[0].Name+" "+pkg+"."+typ)
				}
			}
			return true
		})
	}
}

// srvSteps forbids stepping a simulated server (anything named srv or
// Srv, or ending so) outside the interval kernel.
func srvSteps(f *ast.File, report func(ast.Node, string)) {
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Step" {
				if x := lastName(sel.X); strings.HasSuffix(x, "srv") || strings.HasSuffix(x, "Srv") {
					report(call, x+".Step()")
				}
			}
		}
		return true
	})
}

// elementLoops forbids e.F64(x), e.Int(x) and e.Bool(x): the codec's
// per-element store.
func elementLoops(f *ast.File, report func(ast.Node, string)) {
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 1 && isIdent(call.Args[0], "x") {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isIdent(sel.X, "e") && slices.Contains([]string{"F64", "Int", "Bool"}, sel.Sel.Name) {
				report(call, "e."+sel.Sel.Name+"(x)")
			}
		}
		return true
	})
}

// oneSortCall requires (*service.Instance).RunInterval to make exactly one
// call to anything named like a sort, and that call to be s.sortRun.
func oneSortCall(tr *tree) []string {
	const file = "internal/sim/service/service.go"
	sortRE := regexp.MustCompile(`[sS]ort[A-Za-z]*$`)
	for _, gf := range tr.goFiles {
		if gf.path != file {
			continue
		}
		for _, decl := range gf.f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "RunInterval" || fd.Recv == nil || typeName(fd.Recv.List[0].Type) != "Instance" {
				continue
			}
			var sorts []string
			sortRuns := 0
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && sortRE.MatchString(lastName(call.Fun)) {
					sorts = append(sorts, lastName(call.Fun))
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isIdent(sel.X, "s") && sel.Sel.Name == "sortRun" {
						sortRuns++
					}
				}
				return true
			})
			if len(sorts) != 1 || sortRuns != 1 {
				return []string{fmt.Sprintf("%s: RunInterval calls %v, want exactly one s.sortRun", file, sorts)}
			}
			return nil
		}
	}
	return []string{file + ": no (*Instance).RunInterval"}
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// lastName is the name an operand ends in: x for x, x.y.z for z.
func lastName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// mentions reports whether an identifier of one of the names occurs in n.
func mentions(n ast.Node, names ...string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && slices.Contains(names, id.Name) {
			found = true
		}
		return !found
	})
	return found
}
