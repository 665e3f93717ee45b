// Command tool is the module's entry point.
package main

import "det/deadexport/internal/user"

func main() {
	user.Walk()
	_ = user.Run()
}

func Exported() {} // want `exported Exported`
