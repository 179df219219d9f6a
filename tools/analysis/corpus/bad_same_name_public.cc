// Known-bad: an OBF_PUBLIC parameter of one class's `check` must not
// shield another class's same-named, same-arity `check` from the
// secret its caller passes in.
#include <cstdint>

#include "util/secret.hh"

namespace corpus {

struct Audit
{
    static int check(OBF_PUBLIC uint32_t epoch)
    {
        return static_cast<int>(epoch & 1);
    }
};

struct Key
{
    int check(uint32_t word)
    {
        if (word & 0x80000000u) // FLAG: secret-branch
            return 1;
        return 0;
    }
};

int
expand(Key &k, OBF_SECRET uint32_t key_word)
{
    return k.check(key_word);
}

} // namespace corpus
