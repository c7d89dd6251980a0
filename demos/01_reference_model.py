# coding: utf-8

# # A tiny deterministic causal language model
#
# Everything in this package runs against a small causal transformer whose
# weights are generated from a seed, so every experiment is reproducible
# down to the last bit on any machine.  This demo builds one, runs text
# through it, and pokes at the properties the rest of the toolkit relies
# on: causal masking, tied input/output embeddings, and an exact
# vector-Jacobian product for gradients with respect to the *inputs*.

# In[1]:

import sys

import numpy as np

from promptsearch.model import (
    load_adapter,
    make_reference_model,
    REFERENCE_VOCAB,
)

model = make_reference_model(seed=0)
print("vocab size:", model.vocab_size)
print("hidden dim:", model.dim)
print("max sequence length:", model.max_len)


# The vocabulary is a fixed list of 60 lowercase words chosen so that small
# review-like and news-like sentences can be written with it.  The first two
# entries are reserved specials.

# In[2]:

print(REFERENCE_VOCAB[:12], "...")
print("specials:", sorted(model.special_token_ids))
print("neutral filler token:", model.token_text[model.neutral_token_id])


# ## Tokenizing
#
# The tokenizer is whitespace + lowercasing with leading/trailing
# punctuation split off; unknown words map to `<unk>`.

# In[3]:

ids = model.tokenize("The movie was great, truly great!")
print("ids:", ids)
print("round trip:", model.decode(ids))
print("unknown words:", model.decode(model.tokenize("quantum flux")))


# ## Forward pass and causality
#
# `forward` takes embedded rows (L, dim) and returns hidden states and
# next-token logits for every position.  Because attention is causally
# masked, the logits at position t only depend on tokens 0..t — appending
# text never changes earlier rows.

# In[4]:

table = model.embedding_table()
prefix = model.tokenize("the movie was")
full = model.tokenize("the movie was great")

out_prefix = model.forward(table.entries[prefix])
out_full = model.forward(table.entries[full])
print("prefix logits == full logits on shared rows:",
      np.array_equal(out_prefix.logits, out_full.logits[: len(prefix)]))


# The output head is tied to the embedding table, so the logit for token j
# is just a dot product between the final hidden state and embedding row j
# (equal up to float reassociation in the matrix product).

# In[5]:

h_last = out_full.hidden[-1]
manual_logits = table.entries @ h_last
print("tied head check:", np.allclose(manual_logits, out_full.logits[-1]))
print("largest deviation:", np.abs(manual_logits - out_full.logits[-1]).max())


# ## What does the model predict?
#
# Softmax over the last row gives a next-token distribution.  The reference
# weights are random-but-fixed, so the distribution is diffuse yet
# perfectly stable across runs.

# In[6]:

logits = out_full.logits[-1]
probs = np.exp(logits - logits.max())
probs /= probs.sum()
top = np.argsort(probs)[::-1][:5]
for j in top:
    print(f"  p({model.token_text[j]!r}) = {probs[j]:.4f}")


# ## Gradients with respect to the input rows
#
# Prompt search needs d(loss)/d(input embeddings).  `backward_input`
# implements the exact reverse pass from a gradient w.r.t. the hidden
# states; a gradient w.r.t. the logits enters through the tied output layer,
# times the embedding table.  Here we verify one coordinate against a central
# finite difference, and stop with an error if they disagree.

# In[7]:

X = table.entries[full].astype(float).copy()
fw = model.forward(X)
logit_grad = np.zeros_like(fw.logits)
logit_grad[-1, 7] = 1.0  # gradient of one particular logit
g = model.backward_input(fw.cache, logit_grad @ table.entries)

eps = 1e-6
Xp, Xm = X.copy(), X.copy()
Xp[1, 3] += eps
Xm[1, 3] -= eps
fd = (model.forward(Xp).logits[-1, 7] - model.forward(Xm).logits[-1, 7]) / (2 * eps)
print(f"analytic {g[1, 3]:+.8f}  vs  finite difference {fd:+.8f}")
if abs(g[1, 3] - fd) > 1e-6:
    sys.exit("the analytic gradient does not match its finite difference")


# ## Model specs
#
# Models are addressed by string specs like `reference:<seed>` so that
# experiment records can name exactly which weights they used.

# In[8]:

same = load_adapter("reference:0")
print("same weights from spec string:",
      np.array_equal(same.embedding_table().entries, table.entries))
