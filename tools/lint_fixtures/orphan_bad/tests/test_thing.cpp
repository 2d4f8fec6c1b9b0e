#include "dead/thing.h"

int main() { return dead::thing() == 1 ? 0 : 1; }
