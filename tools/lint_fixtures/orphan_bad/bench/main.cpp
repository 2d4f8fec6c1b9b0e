#include "used/api.h"

int main() { return used::answer(); }
