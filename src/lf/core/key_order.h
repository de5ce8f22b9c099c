// The key order every list and skip list in this repository searches by.
//
// Sentinels hold no real keys: a kHead node compares below and a kTail node
// above every key, realizing the paper's -inf/+inf dummy keys for any key
// type. Interior nodes compare by `comp` on their keys. A node type only
// needs a `kind` (Kind::kHead, kTail or kInterior) and a `key`.
#pragma once

namespace lf {

template <typename Node, typename Key, typename Compare>
bool node_lt(const Node* n, const Key& k, const Compare& comp) {  // n < k
  if (n->kind == Node::Kind::kHead) return true;
  if (n->kind == Node::Kind::kTail) return false;
  return comp(n->key, k);
}

template <typename Node, typename Key, typename Compare>
bool node_le(const Node* n, const Key& k, const Compare& comp) {  // n <= k
  if (n->kind == Node::Kind::kHead) return true;
  if (n->kind == Node::Kind::kTail) return false;
  return !comp(k, n->key);
}

template <typename Node, typename Key, typename Compare>
bool node_eq(const Node* n, const Key& k, const Compare& comp) {
  return n->kind == Node::Kind::kInterior && !comp(n->key, k) &&
         !comp(k, n->key);
}

}  // namespace lf
