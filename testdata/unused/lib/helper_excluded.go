//go:build never

package lib

// helper is declared twice for the never tag, a type error if this file
// were checked; Orphan would be reported.
func helper() int { return 5 }

func Orphan() {}
