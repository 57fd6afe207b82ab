package metacompiler

// CompileReference is compileReference for the external tests, which build
// their inputs with internal/experiments (a package that imports this one).
var CompileReference = compileReference
