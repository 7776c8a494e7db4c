package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// KeyCover mechanizes the fingerprint-coverage contract: every semantic
// field of the system model reaches a content key, and every execution
// knob provably does not. It runs three structural checks, activated by
// declaration shape so the analysistest fixtures can model each side:
//
//   - Prepare side (a package declaring struct SystemConfig and func
//     PrepareKey — internal/core): every SystemConfig field must be
//     read (transitively, through same-package callees) by PrepareKey,
//     or carry the struct tag paralint:"fingerprint" (coverage owed by
//     the scenario schema and enforced on the spec side), or carry
//     paralint:"execonly" (an execution knob that cannot change a
//     result). An execonly field read by PrepareKey is the inverse
//     violation and is also reported.
//
//   - Spec side (a package declaring a BuildSystem function returning a
//     SystemConfig — internal/spec): every non-execonly SystemConfig
//     field must be assigned (transitively) by BuildSystem, so scenario
//     documents — and therefore Scenario.Fingerprint() — fully
//     determine the analyzed system. Assigning an execonly field there
//     is reported.
//
//   - Scenario side (a package declaring struct Scenario with method
//     Fingerprint — internal/spec): Fingerprint hashes the canonical
//     JSON encoding, so every field in the Scenario struct tree must
//     serialize: exported with a json tag other than "-". Unexported or
//     json:"-" fields hide semantics from the fingerprint and are
//     reported unless tagged paralint:"execonly". Types with a custom
//     MarshalJSON are trusted (their coverage is pinned behaviorally by
//     the fingerprint mutation tests).
//
// The analyzer's result is the field inventory committed as
// testdata/keycover.golden, so reviewers see exactly which fields are
// fingerprinted, which are spec-assigned, and which are execution-only.
var KeyCover = &Analyzer{
	Name: "keycover",
	Doc:  "diffs SystemConfig/Scenario fields against PrepareKey and Fingerprint coverage",
	Run:  runKeyCover,
}

const (
	tagExecOnly    = "execonly"
	tagFingerprint = "fingerprint"
)

func paralintTag(tag string) string {
	return reflect.StructTag(tag).Get("paralint")
}

func jsonTagName(tag string) string {
	v := reflect.StructTag(tag).Get("json")
	if i := strings.IndexByte(v, ','); i >= 0 {
		v = v[:i]
	}
	return v
}

func runKeyCover(pass *Pass) (any, error) {
	var inv []string
	inv = append(inv, pass.checkPrepareSide()...)
	inv = append(inv, pass.checkSpecSide()...)
	inv = append(inv, pass.checkScenarioSide()...)
	if len(inv) == 0 {
		return nil, nil
	}
	return inv, nil
}

// --- coverage trees ----------------------------------------------------------

// coverNode records which selector paths rooted at a SystemConfig value
// were consumed. A node is atomic when the whole subtree at that path
// was consumed in one expression (passed to %+v, assigned wholesale,
// nil-checked pointer, ...).
type coverNode struct {
	atomic   bool
	children map[string]*coverNode
}

func (n *coverNode) insert(path []string) {
	if len(path) == 0 {
		n.atomic = true
		return
	}
	if n.children == nil {
		n.children = map[string]*coverNode{}
	}
	child := n.children[path[0]]
	if child == nil {
		child = &coverNode{}
		n.children[path[0]] = child
	}
	child.insert(path[1:])
}

func (n *coverNode) child(name string) *coverNode {
	if n == nil {
		return nil
	}
	return n.children[name]
}

func (n *coverNode) covered() bool { return n != nil && (n.atomic || len(n.children) > 0) }

// --- same-package call-graph closure ----------------------------------------

// closureFrom returns the FuncDecls reachable from root through static
// calls to functions and methods declared in this package.
func (p *Pass) closureFrom(root *ast.FuncDecl) []*ast.FuncDecl {
	decls := map[types.Object]*ast.FuncDecl{}
	for _, file := range p.Pkg.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj := p.Pkg.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	var out []*ast.FuncDecl
	seen := map[*ast.FuncDecl]bool{}
	var visit func(fd *ast.FuncDecl)
	visit = func(fd *ast.FuncDecl) {
		if fd == nil || seen[fd] {
			return
		}
		seen[fd] = true
		out = append(out, fd)
		ast.Inspect(fd, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var callee types.Object
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				callee = p.Pkg.Info.Uses[fun]
			case *ast.SelectorExpr:
				callee = p.Pkg.Info.Uses[fun.Sel]
			}
			if callee != nil {
				visit(decls[callee])
			}
			return true
		})
	}
	visit(root)
	return out
}

// --- prepare side ------------------------------------------------------------

func (p *Pass) lookupStruct(name string) (*types.Named, *types.Struct) {
	obj := p.Pkg.Types.Scope().Lookup(name)
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil, nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil, nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return named, st
}

func (p *Pass) findFunc(name string) *ast.FuncDecl {
	for _, file := range p.Pkg.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
				return fd
			}
		}
	}
	return nil
}

func (p *Pass) checkPrepareSide() []string {
	named, st := p.lookupStruct("SystemConfig")
	prepare := p.findFunc("PrepareKey")
	if named == nil || prepare == nil {
		return nil
	}
	cover := &coverNode{}
	for _, fd := range p.closureFrom(prepare) {
		p.collectReads(fd, named, cover)
	}
	var inv []string
	inv = append(inv, fmt.Sprintf("# %s.SystemConfig — PrepareKey coverage (%s)", p.Pkg.Types.Name(), p.Pkg.PkgPath))
	p.checkFields("prepare", qualName(named), st, named, cover, &inv)
	return inv
}

// collectReads records selector-chain reads rooted at values of type
// target, plus whole-value escapes into calls outside the closure.
func (p *Pass) collectReads(fd *ast.FuncDecl, target *types.Named, cover *coverNode) {
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if root, path, ok := p.fieldChain(n, target); ok {
				cover.insert(path)
				ast.Inspect(root, visit)
				return false
			}
		case *ast.CallExpr:
			// A whole SystemConfig value escaping into a call outside
			// the closure is treated as fully consumed (fmt verbs,
			// hashing helpers, ...). Same-package callees are analyzed
			// precisely by their own decls instead.
			if p.declaredHere(n) {
				return true
			}
			for _, arg := range n.Args {
				if sel, ok := arg.(*ast.SelectorExpr); ok {
					if _, _, isChain := p.fieldChain(sel, target); isChain {
						continue // handled as a chain above
					}
				}
				if t := p.TypeOf(arg); t != nil && namedOrNil(t) == target {
					cover.insert(nil)
				}
			}
		}
		return true
	}
	ast.Inspect(fd, visit)
}

// declaredHere reports whether the call's static callee is a function or
// method declared in this package (and therefore part of any closure
// that reached the call site).
func (p *Pass) declaredHere(call *ast.CallExpr) bool {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = p.Pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.Pkg.Info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	return ok && fn.Pkg() == p.Pkg.Types
}

// fieldChain unwinds a selector expression into the field path it reads
// from a value of type target: sys.Mem.L1I -> [Mem L1I]. Chains broken
// by method calls or rooted elsewhere return ok=false.
func (p *Pass) fieldChain(sel *ast.SelectorExpr, target *types.Named) (root ast.Expr, path []string, ok bool) {
	var rev []string
	var e ast.Expr = sel
	for {
		s, isSel := e.(*ast.SelectorExpr)
		if !isSel {
			break
		}
		selection := p.Pkg.Info.Selections[s]
		if selection == nil || selection.Kind() != types.FieldVal {
			// Package-qualified names or method values end the chain.
			break
		}
		rev = append(rev, s.Sel.Name)
		e = s.X
	}
	if len(rev) == 0 {
		return nil, nil, false
	}
	if t := p.TypeOf(e); t == nil || namedOrNil(t) != target {
		return nil, nil, false
	}
	path = make([]string, len(rev))
	for i, f := range rev {
		path[len(rev)-1-i] = f
	}
	return e, path, true
}

// --- spec side ---------------------------------------------------------------

// findBuildSystem locates a function or method named BuildSystem whose
// first result is a (possibly imported) SystemConfig struct.
func (p *Pass) findBuildSystem() (*ast.FuncDecl, *types.Named) {
	for _, file := range p.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "BuildSystem" {
				continue
			}
			obj, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := obj.Type().(*types.Signature)
			if sig.Results().Len() == 0 {
				continue
			}
			named := namedOrNil(sig.Results().At(0).Type())
			if named == nil || named.Obj().Name() != "SystemConfig" {
				continue
			}
			if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
				continue
			}
			return fd, named
		}
	}
	return nil, nil
}

func (p *Pass) checkSpecSide() []string {
	build, named := p.findBuildSystem()
	if build == nil {
		return nil
	}
	st := named.Underlying().(*types.Struct)
	cover := &coverNode{}
	for _, fd := range p.closureFrom(build) {
		p.collectAssigns(fd, named, cover)
	}
	var inv []string
	inv = append(inv, fmt.Sprintf("# %s — BuildSystem assignment coverage (%s)", qualName(named), p.Pkg.PkgPath))
	p.specFields(build, qualName(named), st, named, cover, &inv)
	return inv
}

// collectAssigns records assignment targets rooted at values of type
// target, plus keyed composite-literal construction.
func (p *Pass) collectAssigns(fd *ast.FuncDecl, target *types.Named, cover *coverNode) {
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					if _, path, ok := p.fieldChain(sel, target); ok {
						cover.insert(path)
					}
				}
			}
		case *ast.CompositeLit:
			if t := p.TypeOf(n); t != nil && namedOrNil(t) == target {
				p.compositeCover(n, nil, cover)
			}
		}
		return true
	})
}

// compositeCover records the fields populated by a (possibly nested)
// struct literal. Positional literals must name every field, so they
// cover the whole node.
func (p *Pass) compositeCover(lit *ast.CompositeLit, prefix []string, cover *coverNode) {
	if len(lit.Elts) == 0 {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			// Positional literal: all fields present.
			cover.insert(prefix)
			return
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		path := append(append([]string{}, prefix...), key.Name)
		val := kv.Value
		if u, ok := val.(*ast.UnaryExpr); ok && u.Op == token.AND {
			val = u.X
		}
		if inner, ok := val.(*ast.CompositeLit); ok {
			if st, _ := derefStruct(p.TypeOf(inner)); st != nil {
				p.compositeCover(inner, path, cover)
				continue
			}
		}
		cover.insert(path)
	}
}

// specFields walks the SystemConfig field tree checking assignment
// coverage; diagnostics anchor on the BuildSystem declaration since the
// struct may live in an imported package.
func (p *Pass) specFields(at *ast.FuncDecl, prefix string, st *types.Struct, scope *types.Named, cover *coverNode, inv *[]string) {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() && f.Pkg() != p.Pkg.Types {
			continue // invisible from here; the prepare side owns it
		}
		name := prefix + "." + f.Name()
		tag := paralintTag(st.Tag(i))
		node := cover.child(f.Name())
		if tag == tagExecOnly {
			if node.covered() {
				p.Reportf(at.Pos(), "execution-only field %s is assigned by BuildSystem: an execution knob must not be derivable from the scenario document", name)
			}
			*inv = append(*inv, name+"\texeconly[tag]")
			continue
		}
		if node != nil && node.atomic {
			*inv = append(*inv, name+"\tassigned")
			continue
		}
		fst, fnamed := derefStruct(f.Type())
		if node.covered() && fst != nil && fnamed != nil && samePkg(fnamed, scope) {
			p.specFields(at, name, fst, scope, cover.child(f.Name()), inv)
			continue
		}
		if node.covered() {
			p.Reportf(at.Pos(), "field %s is only partially assigned by BuildSystem; assign it wholesale or extend the schema mapping", name)
			*inv = append(*inv, name+"\tPARTIAL")
			continue
		}
		p.Reportf(at.Pos(), "field %s is never assigned by BuildSystem: scenario documents cannot express it, so Fingerprint() does not cover it — map it from the spec or tag it paralint:\"execonly\"", name)
		*inv = append(*inv, name+"\tUNCOVERED")
	}
}

// --- shared field-tree check (prepare side) ---------------------------------

func (p *Pass) checkFields(side, prefix string, st *types.Struct, scope *types.Named, cover *coverNode, inv *[]string) {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		name := prefix + "." + f.Name()
		tag := paralintTag(st.Tag(i))
		node := cover.child(f.Name())
		if cover.atomic {
			node = &coverNode{atomic: true}
		}
		switch tag {
		case tagExecOnly:
			if node.covered() {
				p.Reportf(f.Pos(), "execution-only field %s is read by PrepareKey: an execution knob must never reach a content key", name)
			}
			*inv = append(*inv, name+"\texeconly[tag]")
			continue
		case tagFingerprint:
			if node.covered() {
				p.Reportf(f.Pos(), "field %s is tagged paralint:\"fingerprint\" but is also read by PrepareKey; drop the tag", name)
			}
			*inv = append(*inv, name+"\tfingerprint[tag]")
			continue
		}
		if node != nil && node.atomic {
			*inv = append(*inv, name+"\tpreparekey")
			continue
		}
		fst, fnamed := derefStruct(f.Type())
		if node.covered() && fst != nil && fnamed != nil && samePkg(fnamed, scope) {
			p.checkFields(side, name, fst, scope, node, inv)
			continue
		}
		if node.covered() {
			p.Reportf(f.Pos(), "field %s is only partially read by %s; consume it wholesale or tag the sub-structure's fields", name, side)
			*inv = append(*inv, name+"\tPARTIAL")
			continue
		}
		p.Reportf(f.Pos(), "field %s never reaches PrepareKey: a semantic field missing from the content key poisons every cache — consume it in PrepareKey, or tag it paralint:\"fingerprint\" if the scenario schema owns it, or paralint:\"execonly\" if it can never change a result", name)
		*inv = append(*inv, name+"\tUNCOVERED")
	}
}

// --- scenario side -----------------------------------------------------------

func (p *Pass) checkScenarioSide() []string {
	named, st := p.lookupStruct("Scenario")
	if named == nil || !p.hasMethod(named, "Fingerprint") {
		return nil
	}
	var inv []string
	inv = append(inv, fmt.Sprintf("# %s — fingerprint (canonical JSON) serialization (%s)", qualName(named), p.Pkg.PkgPath))
	seen := map[*types.Named]bool{}
	p.jsonFields(qualName(named), st, named, seen, &inv)
	return inv
}

func (p *Pass) hasMethod(named *types.Named, name string) bool {
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == name {
			return true
		}
	}
	return false
}

func (p *Pass) jsonFields(prefix string, st *types.Struct, root *types.Named, seen map[*types.Named]bool, inv *[]string) {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		name := prefix + "." + f.Name()
		tag := paralintTag(st.Tag(i))
		jtag := jsonTagName(st.Tag(i))
		serialized := f.Exported() && jtag != "-"
		switch {
		case tag == tagExecOnly && serialized:
			p.Reportf(f.Pos(), "execution-only field %s is serialized into the fingerprint: add json:\"-\" or drop the paralint tag", name)
			*inv = append(*inv, name+"\tCONTRADICTION")
			continue
		case tag == tagExecOnly:
			*inv = append(*inv, name+"\texeconly[tag]")
			continue
		case !f.Exported():
			p.Reportf(f.Pos(), "unexported field %s is invisible to the canonical JSON encoding, so Fingerprint() cannot see it: export it with a json tag or tag it paralint:\"execonly\"", name)
			*inv = append(*inv, name+"\tUNCOVERED")
			continue
		case jtag == "-":
			p.Reportf(f.Pos(), "field %s is json:\"-\": it never reaches Fingerprint(), so two semantically different scenarios could collide — serialize it or tag it paralint:\"execonly\"", name)
			*inv = append(*inv, name+"\tUNCOVERED")
			continue
		}
		*inv = append(*inv, fmt.Sprintf("%s\tjson:%q", name, jtag))
		p.jsonRecurse(name, f.Type(), seen, inv)
	}
}

// jsonRecurse descends into named struct types from the scenario's own
// package, through pointers, slices, arrays and map values.
func (p *Pass) jsonRecurse(prefix string, t types.Type, seen map[*types.Named]bool, inv *[]string) {
	switch tt := t.(type) {
	case *types.Pointer:
		p.jsonRecurse(prefix, tt.Elem(), seen, inv)
		return
	case *types.Slice:
		p.jsonRecurse(prefix+"[]", tt.Elem(), seen, inv)
		return
	case *types.Array:
		p.jsonRecurse(prefix+"[]", tt.Elem(), seen, inv)
		return
	case *types.Map:
		p.jsonRecurse(prefix+"[k]", tt.Elem(), seen, inv)
		return
	}
	named := namedOrNil(t)
	if named == nil || named.Obj().Pkg() != p.Pkg.Types {
		return
	}
	st, _ := named.Underlying().(*types.Struct)
	if st == nil {
		return
	}
	if seen[named] {
		return
	}
	seen[named] = true
	if p.marshalsItself(named) {
		*inv = append(*inv, prefix+"\t(custom MarshalJSON: trusted, pinned by fingerprint mutation tests)")
		return
	}
	p.jsonFields(prefix, st, named, seen, inv)
	delete(seen, named)
}

// marshalsItself reports whether T or *T declares MarshalJSON.
func (p *Pass) marshalsItself(named *types.Named) bool {
	return p.hasMethod(named, "MarshalJSON")
}

// --- helpers -----------------------------------------------------------------

func samePkg(a, b *types.Named) bool {
	return a.Obj().Pkg() != nil && b.Obj().Pkg() != nil && a.Obj().Pkg() == b.Obj().Pkg()
}

func qualName(n *types.Named) string {
	if n.Obj().Pkg() == nil {
		return n.Obj().Name()
	}
	return n.Obj().Pkg().Name() + "." + n.Obj().Name()
}
