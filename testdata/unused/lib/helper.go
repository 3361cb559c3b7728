package lib

func helper() int { return 4 }
