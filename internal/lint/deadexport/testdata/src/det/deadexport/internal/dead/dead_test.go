package dead

import "testing"

func TestOnlyTested(t *testing.T) { OnlyTested() }
