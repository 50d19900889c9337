#include "kern/rbtree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace k = drowsy::kern;

namespace {

struct Item {
  int key = 0;
  k::RbNode node{};
};

void insert_item(k::RbTree& tree, Item& item) {
  tree.insert(&item.node, [](const k::RbNode* a, const k::RbNode* b) {
    return k::rb_entry<Item, &Item::node>(const_cast<k::RbNode*>(a))->key <
           k::rb_entry<Item, &Item::node>(const_cast<k::RbNode*>(b))->key;
  });
}

std::vector<int> in_order_keys(const k::RbTree& tree) {
  std::vector<int> keys;
  for (k::RbNode* n = tree.first(); n != nullptr; n = k::RbTree::next(n)) {
    keys.push_back(k::rb_entry<Item, &Item::node>(n)->key);
  }
  return keys;
}

}  // namespace

TEST(RbTree, EmptyTree) {
  k::RbTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.first(), nullptr);
  EXPECT_EQ(tree.validate(), 0);
}

TEST(RbTree, SingleInsert) {
  k::RbTree tree;
  Item a{42};
  insert_item(tree, a);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.first(), &a.node);
  EXPECT_GT(tree.validate(), 0);
}

TEST(RbTree, InOrderTraversalSorted) {
  k::RbTree tree;
  std::vector<std::unique_ptr<Item>> items;
  const int keys[] = {5, 3, 8, 1, 4, 7, 9, 2, 6, 0};
  for (int key : keys) {
    items.push_back(std::make_unique<Item>(Item{key}));
    insert_item(tree, *items.back());
  }
  EXPECT_EQ(in_order_keys(tree), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_GT(tree.validate(), 0);
}

TEST(RbTree, EraseLeaf) {
  k::RbTree tree;
  Item a{1}, b{2}, c{3};
  insert_item(tree, a);
  insert_item(tree, b);
  insert_item(tree, c);
  tree.erase(&a.node);
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_EQ(in_order_keys(tree), (std::vector<int>{2, 3}));
  EXPECT_GT(tree.validate(), 0);
  // erase() resets the node for reuse.
  EXPECT_EQ(a.node.parent, nullptr);
  EXPECT_EQ(a.node.left, nullptr);
  EXPECT_EQ(a.node.right, nullptr);
}

TEST(RbTree, EraseRootWithTwoChildren) {
  k::RbTree tree;
  Item a{1}, b{2}, c{3};
  insert_item(tree, a);
  insert_item(tree, b);
  insert_item(tree, c);
  tree.erase(&b.node);  // b is the root after rebalancing 1,2,3
  EXPECT_EQ(in_order_keys(tree), (std::vector<int>{1, 3}));
  EXPECT_GT(tree.validate(), 0);
}

TEST(RbTree, EraseEverything) {
  k::RbTree tree;
  std::vector<std::unique_ptr<Item>> items;
  for (int key = 0; key < 20; ++key) {
    items.push_back(std::make_unique<Item>(Item{key}));
    insert_item(tree, *items.back());
  }
  for (auto& item : items) {
    tree.erase(&item->node);
    EXPECT_GE(tree.validate(), 0) << "invariant broken after erasing " << item->key;
  }
  EXPECT_TRUE(tree.empty());
}

TEST(RbTree, AscendingInsertionStaysBalanced) {
  // The classic BST killer: sorted insertion.  A red-black tree must keep
  // black-height O(log n).
  k::RbTree tree;
  std::vector<std::unique_ptr<Item>> items;
  for (int key = 0; key < 1024; ++key) {
    items.push_back(std::make_unique<Item>(Item{key}));
    insert_item(tree, *items.back());
  }
  const int bh = tree.validate();
  EXPECT_GT(bh, 0);
  EXPECT_LE(bh, 11);  // black-height <= log2(n+1) = 10, +1 slack
}

TEST(RbTree, DuplicateKeysAllowed) {
  k::RbTree tree;
  Item a{5}, b{5}, c{5};
  insert_item(tree, a);
  insert_item(tree, b);
  insert_item(tree, c);
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(in_order_keys(tree), (std::vector<int>{5, 5, 5}));
  tree.erase(&b.node);
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_GT(tree.validate(), 0);
}

class RbTreeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RbTreeFuzz, MatchesMultisetUnderRandomOps) {
  drowsy::util::Rng rng(GetParam());
  k::RbTree tree;
  std::multiset<int> reference;
  std::vector<std::unique_ptr<Item>> live;

  for (int op = 0; op < 2000; ++op) {
    const bool do_insert = live.empty() || rng.bernoulli(0.6);
    if (do_insert) {
      const int key = static_cast<int>(rng.uniform_int(0, 199));
      live.push_back(std::make_unique<Item>(Item{key}));
      insert_item(tree, *live.back());
      reference.insert(key);
    } else {
      const std::size_t idx =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(live.size()) - 1));
      tree.erase(&live[idx]->node);
      reference.erase(reference.find(live[idx]->key));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    ASSERT_EQ(tree.size(), reference.size());
    if (op % 100 == 0) {
      ASSERT_GE(tree.validate(), 0) << "red-black violation at op " << op;
      const auto keys = in_order_keys(tree);
      ASSERT_TRUE(std::equal(keys.begin(), keys.end(), reference.begin(), reference.end()));
    }
  }
  ASSERT_GE(tree.validate(), 0);
  const auto keys = in_order_keys(tree);
  ASSERT_TRUE(std::equal(keys.begin(), keys.end(), reference.begin(), reference.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RbTreeFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));
