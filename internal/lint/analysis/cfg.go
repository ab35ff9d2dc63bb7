package analysis

import (
	"go/ast"
	"go/token"
)

// CFG is an intraprocedural control-flow graph over one function body,
// shaped after golang.org/x/tools/go/cfg but stdlib-only: basic blocks of
// straight-line statements and control expressions, connected by edges
// that model if/for/range/switch/select/goto/labeled-branch control flow.
//
// Compound statements never appear whole inside a block; only their
// control parts do (an if's init+cond, a for's cond, a switch's tag). The
// two exceptions are *ast.RangeStmt and *ast.SelectStmt, which are
// appended as themselves to the head block so analyzers can see the
// blocking range/select operation — InspectShallow skips their bodies, so
// nothing is visited twice.
type CFG struct {
	// Blocks[0] is the entry block. Order is deterministic (construction
	// order, which follows source order).
	Blocks []*Block
	// SelectComm marks nodes that are the comm operation of a select
	// clause: by select semantics they only execute once ready, so
	// analyzers looking for blocking channel operations must judge the
	// select statement (default or not), not the comm itself.
	SelectComm map[ast.Node]bool
}

// Block is a maximal straight-line run of nodes with no internal control
// transfer.
type Block struct {
	Index int
	// Nodes holds simple statements and control expressions in execution
	// order. Analyzers walk them with InspectShallow.
	Nodes []ast.Node
	// Succs are the indices of successor blocks in deterministic order.
	Succs []int
	// Panics marks a block that ends in a definite termination —
	// panic(...), os.Exit, log.Fatal* — i.e. an error/assertion path that
	// never rejoins normal control flow.
	Panics bool
}

// InspectShallow walks n like ast.Inspect but does not descend into
// nested function literals or statement bodies (*ast.BlockStmt): those
// live in other blocks (or other CFGs), so a shallow walk visits each
// node of the enclosing function exactly once across all blocks. The
// literal/body node itself is still visited — analyzers may care that a
// closure exists without caring what it does.
func InspectShallow(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m.(type) {
		case *ast.FuncLit, *ast.BlockStmt:
			f(m)
			return false
		}
		return f(m)
	})
}

// cfgBuilder carries the construction state: the block under
// construction, the label table, and the loop/switch stacks break and
// continue resolve against.
type cfgBuilder struct {
	cfg *CFG
	cur *Block

	// breakTargets / continueTargets are stacks of (label, target).
	breakTargets    []branchTarget
	continueTargets []branchTarget
	// labels maps a label name to the block its statement starts in
	// (created on demand so forward gotos resolve).
	labels map[string]*Block
}

type branchTarget struct {
	label string // "" = unlabeled target
	block *Block
}

// NewCFG builds the control-flow graph of one function body.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{SelectComm: map[ast.Node]bool{}}, labels: map[string]*Block{}}
	b.cur = b.newBlock()
	b.stmtList(body.List)
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to.Index {
			return
		}
	}
	from.Succs = append(from.Succs, to.Index)
}

// startUnreachable begins a fresh block with no predecessor, used after a
// return/branch/panic so trailing dead code still parses into blocks.
func (b *cfgBuilder) startUnreachable() {
	b.cur = b.newBlock()
}

func (b *cfgBuilder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt extends the graph with one statement. label is the pending label
// when s is the body of a LabeledStmt (so labeled loops register labeled
// break/continue targets).
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		blk := b.labelBlock(s.Label.Name)
		b.edge(b.cur, blk)
		b.cur = blk
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		b.cur.Nodes = append(b.cur.Nodes, s.Cond)
		cond := b.cur
		then := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmtList(s.Body.List)
		thenEnd := b.cur
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.edge(cond, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else, "")
			elseEnd := b.cur
			join := b.newBlock()
			b.edge(thenEnd, join)
			b.edge(elseEnd, join)
			b.cur = join
		} else {
			join := b.newBlock()
			b.edge(cond, join)
			b.edge(thenEnd, join)
			b.cur = join
		}

	case *ast.ForStmt:
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		join := b.newBlock()
		post := b.newBlock()
		if s.Post != nil {
			post.Nodes = append(post.Nodes, s.Post)
		}
		b.edge(post, head)
		if s.Cond != nil {
			b.edge(head, join)
		}
		b.pushLoop(label, join, post)
		body := b.newBlock()
		b.edge(head, body)
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, post)
		b.popLoop()
		b.cur = join

	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(b.cur, head)
		// The RangeStmt itself is the head node: InspectShallow sees the
		// key/value/operand exprs (and, for channels, the blocking
		// receive) but not the body.
		head.Nodes = append(head.Nodes, s)
		join := b.newBlock()
		b.edge(head, join)
		b.pushLoop(label, join, head)
		body := b.newBlock()
		b.edge(head, body)
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, head)
		b.popLoop()
		b.cur = join

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		if s.Tag != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Tag)
		}
		b.switchClauses(s.Body.List, label, func(clause ast.Stmt, blk *Block) []ast.Stmt {
			cc := clause.(*ast.CaseClause)
			for _, e := range cc.List {
				blk.Nodes = append(blk.Nodes, e)
			}
			return cc.Body
		}, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		b.cur.Nodes = append(b.cur.Nodes, s.Assign)
		b.switchClauses(s.Body.List, label, func(clause ast.Stmt, blk *Block) []ast.Stmt {
			return clause.(*ast.CaseClause).Body
		}, true)

	case *ast.SelectStmt:
		// The select statement itself stays in the current block so
		// analyzers can see a blocking (default-less) select; its comm
		// operations execute in the chosen clause's block.
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.switchClauses(s.Body.List, label, func(clause ast.Stmt, blk *Block) []ast.Stmt {
			cc := clause.(*ast.CommClause)
			if cc.Comm != nil {
				blk.Nodes = append(blk.Nodes, cc.Comm)
				b.cfg.SelectComm[cc.Comm] = true
			}
			return cc.Body
		}, false)

	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.startUnreachable()

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.findTarget(b.breakTargets, s.Label); t != nil {
				b.edge(b.cur, t)
			}
			b.startUnreachable()
		case token.CONTINUE:
			if t := b.findTarget(b.continueTargets, s.Label); t != nil {
				b.edge(b.cur, t)
			}
			b.startUnreachable()
		case token.GOTO:
			if s.Label != nil {
				b.edge(b.cur, b.labelBlock(s.Label.Name))
			}
			b.startUnreachable()
		case token.FALLTHROUGH:
			// Handled by switchClauses via clause ordering; the edge to
			// the next clause body is added there.
		}

	default:
		// Simple statements: expr/assign/decl/incdec/send/go/defer/empty.
		b.cur.Nodes = append(b.cur.Nodes, s)
		if terminates(s) {
			b.cur.Panics = true
			b.startUnreachable()
		}
	}
}

// switchClauses wires the clause blocks of a switch/type-switch/select.
// bodyOf appends the clause's guard nodes to its block and returns the
// clause body. defaultFallsThrough states whether a missing default means
// control can skip every clause (switch: yes; select: no — a default-less
// select blocks until some case fires).
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, label string, bodyOf func(ast.Stmt, *Block) []ast.Stmt, defaultFallsThrough bool) {
	head := b.cur
	join := b.newBlock()
	b.pushSwitch(label, join)
	hasDefault := false
	blocks := make([]*Block, len(clauses))
	bodies := make([][]ast.Stmt, len(clauses))
	for i, c := range clauses {
		blocks[i] = b.newBlock()
		b.edge(head, blocks[i])
		bodies[i] = bodyOf(c, blocks[i])
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			}
		}
	}
	if !hasDefault && defaultFallsThrough {
		b.edge(head, join)
	}
	for i := range clauses {
		b.cur = blocks[i]
		b.stmtList(bodies[i])
		if n := len(bodies[i]); n > 0 {
			if br, ok := bodies[i][n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && i+1 < len(blocks) {
				b.edge(b.cur, blocks[i+1])
				continue
			}
		}
		b.edge(b.cur, join)
	}
	b.popSwitch()
	b.cur = join
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) {
	b.breakTargets = append(b.breakTargets, branchTarget{"", brk})
	b.continueTargets = append(b.continueTargets, branchTarget{"", cont})
	if label != "" {
		b.breakTargets = append(b.breakTargets, branchTarget{label, brk})
		b.continueTargets = append(b.continueTargets, branchTarget{label, cont})
	}
}

func (b *cfgBuilder) popLoop() {
	b.breakTargets = popTargets(b.breakTargets)
	b.continueTargets = popTargets(b.continueTargets)
}

func (b *cfgBuilder) pushSwitch(label string, brk *Block) {
	b.breakTargets = append(b.breakTargets, branchTarget{"", brk})
	if label != "" {
		b.breakTargets = append(b.breakTargets, branchTarget{label, brk})
	}
}

func (b *cfgBuilder) popSwitch() {
	b.breakTargets = popTargets(b.breakTargets)
}

// popTargets removes the innermost unlabeled target plus its labeled
// twin, if one was pushed with it.
func popTargets(ts []branchTarget) []branchTarget {
	if n := len(ts); n > 0 && ts[n-1].label != "" {
		ts = ts[:n-1]
	}
	if n := len(ts); n > 0 {
		ts = ts[:n-1]
	}
	return ts
}

func (b *cfgBuilder) findTarget(ts []branchTarget, label *ast.Ident) *Block {
	want := ""
	if label != nil {
		want = label.Name
	}
	for i := len(ts) - 1; i >= 0; i-- {
		if ts[i].label == want {
			return ts[i].block
		}
	}
	return nil
}

// terminates reports whether a simple statement definitely ends control
// flow: a panic, os.Exit or log.Fatal* call.
func terminates(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := fun.X.(*ast.Ident); ok {
			if pkg.Name == "os" && fun.Sel.Name == "Exit" {
				return true
			}
			if pkg.Name == "log" && (fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf" || fun.Sel.Name == "Fatalln") {
				return true
			}
		}
	}
	return false
}
