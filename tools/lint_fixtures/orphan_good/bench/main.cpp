#include "util.h"

int main() { return used::answer() + used::helper(); }
