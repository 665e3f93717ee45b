package main

import (
	"testing"

	"det/deadexport/internal/dead"
)

func TestNested(t *testing.T) { dead.OnlyNestedTest() }
