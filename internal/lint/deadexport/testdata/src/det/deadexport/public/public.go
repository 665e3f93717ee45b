// Package public is importable by other modules, so its exports are its
// API and exempt.
package public

func Unused() {}
