// Known-bad: a secret passed through an interface reaches every
// implementation of that method; the declared-only `Sink::take` must
// not stop the taint at the call site.
#include <cstdint>

#include "util/secret.hh"

namespace corpus {

struct Sink
{
    virtual ~Sink() = default;
    virtual int take(uint32_t word) = 0;
};

struct Leaky : Sink
{
    int take(uint32_t word) override
    {
        if (word & 1) // FLAG: secret-branch
            return 1;
        return 0;
    }
};

int
feed(Sink &sink, OBF_SECRET uint32_t key_word)
{
    return sink.take(key_word);
}

} // namespace corpus
