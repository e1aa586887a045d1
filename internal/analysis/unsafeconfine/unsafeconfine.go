// Package unsafeconfine forbids the unsafe package outside
// sling/internal/mmap.
//
// Invariant: the mapped disk mode reinterprets memory-mapped file
// bytes as []uint32 / []float32 views, and that reinterpretation is
// only sound under conditions internal/mmap checks centrally — host
// little-endianness, 4-byte base alignment, whole-word lengths, and a
// mapping whose lifetime outlives every view. Any other unsafe use
// would re-derive those preconditions ad hoc (or forget one), and a
// missed check surfaces as silent data corruption or a SIGBUS in
// production rather than a compile-time or test failure. Confining the
// import to one audited package keeps the entire unsafe surface
// reviewable in one file.
package unsafeconfine

import (
	"strconv"

	"sling/internal/analysis/framework"
)

// mmapPath is the one package allowed to import unsafe (it implements
// the audited typed-view reinterpretation).
const mmapPath = "sling/internal/mmap"

// Analyzer implements the check.
var Analyzer = &framework.Analyzer{
	Name: "unsafeconfine",
	Doc:  "forbid importing unsafe outside internal/mmap: the zero-copy view reinterpretation is only audited there",
	Run:  run,
}

func run(pass *framework.Pass) error {
	if pkgAllowed(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "unsafe" {
				pass.Reportf(imp.Pos(),
					"import of unsafe is forbidden outside %s: put reinterpretation behind its audited typed views instead", mmapPath)
			}
		}
	}
	return nil
}

// pkgAllowed exempts the mmap package itself (and its in-package
// tests, which load as the same import path).
func pkgAllowed(path string) bool {
	return path == mmapPath
}
