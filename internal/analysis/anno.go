package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// An Annotation is one parsed //onll:kind(arg) marker. Arg is empty
// when the parentheses are omitted.
type Annotation struct {
	Kind string
	Arg  string
	Pos  token.Pos
}

// Annotations indexes a package's //onll: markers three ways: by the
// function declaration they document, by the type declaration they
// document, and by (file, line) for statement-level escapes written as
// trailing comments. See doc.go for the vocabulary.
type Annotations struct {
	fset   *token.FileSet
	byFunc map[*ast.FuncDecl][]Annotation
	byType map[*ast.TypeSpec][]Annotation
	byLine map[string]map[int][]Annotation
}

// ParseAnnotations scans every comment in the files. Files must have
// been parsed with parser.ParseComments.
func ParseAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	a := &Annotations{
		fset:   fset,
		byFunc: map[*ast.FuncDecl][]Annotation{},
		byType: map[*ast.TypeSpec][]Annotation{},
		byLine: map[string]map[int][]Annotation{},
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				ann, ok := parseMarker(c)
				if !ok {
					continue
				}
				pos := fset.Position(c.Slash)
				lines := a.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]Annotation{}
					a.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], ann)
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				a.byFunc[d] = markersIn(d.Doc)
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, s := range d.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok {
						continue
					}
					anns := markersIn(ts.Doc)
					if len(anns) == 0 && len(d.Specs) == 1 {
						anns = markersIn(d.Doc)
					}
					if len(anns) > 0 {
						a.byType[ts] = anns
					}
				}
			}
		}
	}
	return a
}

func markersIn(doc *ast.CommentGroup) []Annotation {
	if doc == nil {
		return nil
	}
	var out []Annotation
	for _, c := range doc.List {
		if ann, ok := parseMarker(c); ok {
			out = append(out, ann)
		}
	}
	return out
}

func parseMarker(c *ast.Comment) (Annotation, bool) {
	text, ok := strings.CutPrefix(c.Text, "//onll:")
	if !ok {
		return Annotation{}, false
	}
	text = strings.TrimSpace(text)
	kind, rest := text, ""
	if i := strings.IndexByte(text, '('); i >= 0 {
		kind, rest = text[:i], argOf(text[i+1:])
	}
	if kind == "" {
		return Annotation{}, false
	}
	return Annotation{Kind: kind, Arg: strings.TrimSpace(rest), Pos: c.Slash}, true
}

// argOf returns the marker's argument: s up to the parenthesis that
// closes the marker's, so a reason may hold balanced parentheses and a
// fixture's want comment may follow on the line. An unclosed argument
// runs to the end of the comment.
func argOf(s string) string {
	depth := 1
	for i, c := range s {
		switch c {
		case '(':
			depth++
		case ')':
			if depth--; depth == 0 {
				return s[:i]
			}
		}
	}
	return s
}

// Func returns the first kind-annotation in fd's doc comment.
func (a *Annotations) Func(fd *ast.FuncDecl, kind string) (Annotation, bool) {
	for _, ann := range a.byFunc[fd] {
		if ann.Kind == kind {
			return ann, true
		}
	}
	return Annotation{}, false
}

// Type returns the first kind-annotation documenting the type spec.
func (a *Annotations) Type(ts *ast.TypeSpec, kind string) (Annotation, bool) {
	for _, ann := range a.byType[ts] {
		if ann.Kind == kind {
			return ann, true
		}
	}
	return Annotation{}, false
}

// Line reports whether a kind-annotation sits on the same source line
// as pos — the statement-level escape form (trailing comment).
func (a *Annotations) Line(pos token.Pos, kind string) (Annotation, bool) {
	p := a.fset.Position(pos)
	for _, ann := range a.byLine[p.Filename][p.Line] {
		if ann.Kind == kind {
			return ann, true
		}
	}
	return Annotation{}, false
}
